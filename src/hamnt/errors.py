"""Exception types shared across the package.

Exit-code mapping, applied once in `hamnt.cli.main`:
  * HypothesisError / FeasibilityError / format and file errors -> usage (2)
  * LemmaViolationError -> mathematical falsification (1)
"""


class SchemeMismatchError(ValueError):
    """Operands belong to different Hamming schemes."""


class FeasibilityError(RuntimeError):
    """An exhaustive sweep would exceed a configured cap."""

    def __init__(self, message: str, *, required: int | None = None,
                 cap: int | None = None, partial: int | None = None):
        super().__init__(message)
        self.required = required
        self.cap = cap
        self.partial = partial


class CodeFormatError(ValueError):
    """A code file or vertex string does not parse."""


class HypothesisError(ValueError):
    """A documented mathematical hypothesis of an operation is violated."""


class MinDistanceError(HypothesisError):
    """Minimum distance below what the operation requires."""


class NotACodewordError(HypothesisError):
    """The given vertex is not a codeword of the given code."""


class NotNeighbourStabilizerError(HypothesisError):
    """The automorphism does not stabilize the code's neighbour set."""


class ImageInCodeError(HypothesisError):
    """The automorphism maps the chosen codeword back into the code."""


class LemmaViolationError(RuntimeError):
    """An internally asserted lemma failed; this falsifies the mathematics
    the package checks and is never expected on valid inputs."""
