"""Exception types shared across the package."""


class VqoptError(Exception):
    """Base class for all vqopt errors."""


class DomainError(VqoptError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(VqoptError, ValueError):
    """A problem size exceeds the exhaustive-enumeration budget or one array."""


class IntegrityError(VqoptError, RuntimeError):
    """An internal invariant (e.g. state normalization) was violated."""


class SchemaError(VqoptError, ValueError):
    """A persisted file has an unexpected schema version or layout."""
