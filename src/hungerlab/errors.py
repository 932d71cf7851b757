"""Exception types shared across the package.

Everything raised on purpose derives from HungerLabError, so callers (and the
CLI) can distinguish our failures from genuine bugs.
"""


class HungerLabError(Exception):
    """Base class for all package errors."""


class ChainFormatError(HungerLabError):
    """Chain document is malformed: bad token, bad row sum, negative entry,
    or a float literal in rational mode."""


class NonUniqueStationary(HungerLabError):
    """The chain has more than one stationary distribution (the nullspace of
    H-transpose has dimension > 1)."""


class FloatModeUnsupported(HungerLabError):
    """Operation requires exact rational arithmetic."""


class VIsAbsorbing(HungerLabError):
    """Rerouting (or hitting/absorption estimation) from an absorbing state."""


class NoAbsorbingStates(HungerLabError):
    """Operation needs at least one absorbing state."""


class IIsAbsorbing(HungerLabError):
    """Chip insertion at an absorbing state."""


class UEqualsV(HungerLabError):
    """Escape probability needs two distinct states."""


class ZeroSteps(HungerLabError):
    """Normalization of an empty firing trace."""


class HasAbsorbing(HungerLabError):
    """Cycle analysis is defined only for chains without absorbing states."""


class YNotOnZ(HungerLabError):
    """Lattice membership asked for a vector whose entries do not sum to 0."""


class CapExceeded(HungerLabError):
    """A step cap was hit before the loop could finish.

    Attributes:
        cap: the configured cap.
    """

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"step cap {cap} exceeded")


class Stabilized(HungerLabError):
    """Chip-firing run ran out of eligible states before any repeat."""

    def __init__(self, steps, message=None):
        self.steps = steps
        super().__init__(message or f"no eligible state after {steps} firings")
