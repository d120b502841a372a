"""Exception types raised across the library."""


class GagaError(Exception):
    """Base class for all library errors."""


class InvalidInput(GagaError):
    pass


class DimensionError(GagaError):
    pass


class InvalidAlpha(GagaError):
    pass


class InvalidSize(GagaError):
    pass


class InvalidCorrelation(GagaError):
    pass


class SingularSystem(GagaError):
    """A Cholesky factorization failed at the pivot of design column ``pivot``."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"system not positive definite at pivot {pivot}")


class RankDeficient(GagaError):
    """The QR variant's factor failed at the pivot of design column ``pivot``."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"design rank deficient at pivot {pivot}")
