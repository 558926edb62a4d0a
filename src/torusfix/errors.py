"""Exception types shared across the package."""


class TorusFixError(Exception):
    """Base class for all package-specific errors."""


class NonIntegralError(TorusFixError):
    """A derived characteristic polynomial has non-integer coefficients,
    so the input cannot come from a lattice-preserving endomorphism."""


class InvalidStructureError(TorusFixError):
    """A quartic fails the conjugate-pair root structure required of the
    rational representation of a torus endomorphism, or a radicand is too
    large for the square-free test's trial-division limit."""


class InvalidEndomorphismError(TorusFixError):
    """A verdict contradicts the structure of the input (mixed behaviour
    with several unity orders, or from an algebra element that cannot be
    mixed), certifying that it is not realizable by a torus endomorphism.
    A unit-circle root that is not a root of unity fails conjugate-pair
    validation instead, with InvalidStructureError."""


class NotDivisionAlgebraError(TorusFixError):
    """An element-level contradiction shows the chosen quaternion symbol
    does not define a division algebra."""


class ZeroNormError(NotDivisionAlgebraError):
    """A non-zero quaternion element has reduced norm zero."""


class ZeroEndomorphismError(TorusFixError):
    """The zero endomorphism has no meaningful fixed-point behaviour."""
