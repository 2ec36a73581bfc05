"""Exception types shared across the package."""

from __future__ import annotations


class CtcSimError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CtcSimError, ValueError):
    """Operands have incompatible or structurally invalid dimensions."""


class NormalizationError(CtcSimError, ValueError):
    """A vector that must be normalized is not."""


class NoFixedPointNumerical(CtcSimError):
    """No density-matrix fixed point was found within tolerance.

    Existence is guaranteed for completely positive trace-preserving maps,
    so this signals a numerical failure, never a physical one.
    """


class NonUniqueFixedPoint(CtcSimError):
    """The self-consistency condition has more than one solution."""

    def __init__(self, fixed_space_dim: int):
        self.fixed_space_dim = int(fixed_space_dim)
        super().__init__(
            f"fixed-point space has dimension {self.fixed_space_dim}; "
            "a unique solution was required"
        )


class Condition2Exhausted(CtcSimError):
    """No completion of some U_k reaches condition 2 (all overlaps nonzero)."""


class DegenerateSuperposition(CtcSimError):
    """The requested amplitudes cancel; no normalized target state exists."""

    def __init__(self, i: int, j: int, gamma: float):
        self.i = int(i)
        self.j = int(j)
        self.gamma = float(gamma)
        super().__init__(
            f"amplitudes cancel for pair (i={self.i}, j={self.j}): "
            f"normalizer {self.gamma:.3e} is below tolerance"
        )


class PurityLoss(CtcSimError):
    """A reduced state that should be pure came out significantly mixed.

    This indicates a pipeline bug upstream, not a property of the inputs.
    """


class InputNotInSetWarning(UserWarning):
    """The input state matches no member of the declared state set."""
