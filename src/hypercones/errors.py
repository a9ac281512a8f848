"""Exception types shared across the package."""


class HyperconesError(Exception):
    """Base class for all package-specific failures."""


class DegenerateGeometry(HyperconesError):
    """Predicate input sits inside the tangency window; perturb and retry."""


class ConstructionFailure(HyperconesError):
    """A certified construction exhausted its search budget."""

    def __init__(self, message: str, *, failing_index: int | None = None):
        super().__init__(message)
        self.failing_index = failing_index


class AdmissibilityError(HyperconesError):
    """A charge operation was asked on localizations whose geometry does
    not admit it; the message suggests a remedy when one exists."""


class ChargeMismatchError(HyperconesError):
    """A charge operation requires equal charges or matching groups."""


class SceneError(HyperconesError):
    """A scene file could not be parsed or validated."""
