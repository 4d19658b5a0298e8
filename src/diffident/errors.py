"""Exception types shared across the package."""


class DiffidentError(Exception):
    """Base class for all engine errors."""


class AmbientMismatch(DiffidentError):
    """Two subspaces (or a vector and a subspace) live in different ambient spaces."""


class DenominatorDivisibleByPrime(DiffidentError):
    """A rational entry cannot be reduced modulo the chosen prime."""


class NotAssociative(DiffidentError):
    """The structure constants fail associativity on a basis triple: triple
    holds 0-based indices, the message the file's 1-based ones."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"associativity fails on basis triple {_one_based(triple)}")


class NotAUnit(DiffidentError):
    """The supplied vector is not a two-sided unit."""


class NotADerivation(DiffidentError):
    """A matrix fails the Leibniz rule on some basis pair: pair holds 0-based
    indices, the message the file's 1-based ones and the derivation's name."""

    def __init__(self, pair, name: str = ""):
        self.pair = pair
        self.name = name
        msg = f"Leibniz rule fails on basis pair {_one_based(pair)}"
        super().__init__(f"derivation {name}: {msg}" if name else msg)


def _one_based(indices: tuple) -> tuple:
    return tuple(i + 1 for i in indices)


class NonSplitCenter(DiffidentError):
    """A central element's minimal polynomial has a nonlinear factor over Q,
    so the semisimple part does not split into blocks over the rationals."""


class InternalVerificationFailed(DiffidentError):
    """A computed structural object failed its own post-verification (engine bug)."""


class SizeCap(DiffidentError):
    """A requested computation exceeds the configured size budget."""


class WordCapExceeded(DiffidentError):
    """An exponent word grew past the configured length cap."""


class NotMultilinear(DiffidentError):
    """A polynomial is not multilinear of the expected degree."""


class AlphabetMismatch(DiffidentError):
    """Two actions do not share a common generator alphabet."""


class BadParams(DiffidentError):
    """Unrecognized generator name or invalid parameters."""


class ParseError(DiffidentError):
    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
