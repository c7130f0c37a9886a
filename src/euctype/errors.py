"""Exception hierarchy shared by all engine modules.

Every error carries the process exit status the CLI maps it to.  "Not
Euclidean" is deliberately modeled as a *finding* with its own status: it
is a valid mathematical answer, not a failure of the tool.
"""


class EngineError(Exception):
    exit_code = 1


class DomainError(EngineError):
    """A precondition of an operation is violated (undefined input)."""

    exit_code = 2


class NotEuclideanRing(EngineError):
    """The ring is not principal, so it admits no Euclidean function.

    ``stuck`` holds the nonzero elements that Motzkin's construction never
    puts on a level; ``partial`` holds the level of every other nonzero
    element.  Both are in carrier order.
    """

    exit_code = 3

    def __init__(self, ring, stuck, partial):
        self.ring = ring
        self.stuck = tuple(stuck)
        self.partial = dict(partial)
        super().__init__(
            f"{ring.name} is not Euclidean: no level can be assigned to "
            f"{len(self.stuck)} element(s)"
        )


class ResourceError(EngineError):
    """A configured size/depth/growth bound was exceeded."""

    exit_code = 4


class ParseError(EngineError):
    """Syntax error in an ordinal expression or ring spec."""

    exit_code = 5

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
