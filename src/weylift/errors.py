"""Exception types shared across the package.

Every error raised on a documented failure path derives from WeyliftError,
so callers can catch one base class at API boundaries (the CLI does).
"""


class WeyliftError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- scalars

class DivisionByZero(WeyliftError, ZeroDivisionError):
    """Division by the zero element of a field."""


class FieldMismatch(WeyliftError):
    """Operands belong to different coefficient fields."""


class NotFiniteField(WeyliftError):
    """A finite-field operation was requested over the rationals."""


class NotPIntegral(WeyliftError):
    """A rational has the residue characteristic in its denominator."""


# --------------------------------------------------------------- elements

class FlavorMismatch(WeyliftError):
    """Operands live in algebras with different bracket flavors."""


class WrongArity(WeyliftError):
    """An image list has the wrong number of entries."""


class SideMismatch(WeyliftError):
    """Commutative and normal-ordered elements were mixed up."""


class IndexOutOfRange(WeyliftError):
    """A generator index is outside the flavor's range."""


class ExpansionBoundExceeded(WeyliftError):
    """An intermediate expansion grew past the configured term bound."""


class InvalidExponent(WeyliftError):
    """A power was asked for with an exponent that is not an int >= 0."""


class NegativeHExponent(WeyliftError):
    """An operation that needs polynomial h-dependence met a pole in h."""


# -------------------------------------------------------------- morphisms

class SingularLinearPart(WeyliftError):
    """The degree-one coefficient matrix is not invertible."""


class NotSymplectic(WeyliftError):
    """A map that must preserve the bracket does not."""


# ------------------------------------------------------------------ approx

class DeviationNotHamiltonian(WeyliftError):
    """A homogeneous deviation admits no polynomial Hamiltonian."""


class PositiveCharacteristic(WeyliftError):
    """A characteristic-zero-only routine was called over F_q."""


class ZeroCovector(WeyliftError):
    """A linear form that must be nonzero is zero."""


class StageStall(WeyliftError):
    """An approximation stage failed to raise the residual rank."""


# ------------------------------------------------------------------ charp

class NotCentral(WeyliftError):
    """An element expected to lie in the center does not."""


class InternalCentralityFailure(WeyliftError):
    """A p-th power that is central by theory failed the direct check."""


class NotDivisibleByP(WeyliftError):
    """An integer commutator coefficient is not divisible by p."""


# ---------------------------------------------------------------- singlift

class DimensionMismatch(WeyliftError):
    """A curve or matrix has the wrong number of entries."""


class StabilizationFailure(WeyliftError):
    """Successive lift truncations disagree below the stable height."""


# -------------------------------------------------------------------- cli

class ExprSyntaxError(WeyliftError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(WeyliftError):
    """Expression text names a generator absent from the flavor."""
