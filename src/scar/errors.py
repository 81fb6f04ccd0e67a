"""Exception types shared across the package."""


class ScarError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ScarError, ValueError):
    """Invalid user input: parameters, state literals, ranges."""


class GraphFormatError(ValidationError):
    """Base class for edge-list parsing problems."""


class MalformedLineError(GraphFormatError):
    """A line of an edge list is not `u v`."""


class SelfLoopError(GraphFormatError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphFormatError):
    """The same undirected edge appears more than once."""


class DisconnectedGraphError(GraphFormatError):
    """The vertex set is not connected."""


class StateCountExceededError(ValidationError):
    """Building the arena would exceed the configured state cap."""


class IllegalMoveError(ScarError):
    """A simulated move is not a legal successor of the current state."""


class UniquenessViolationError(ScarError):
    """Two optimal plays disagree on the capturing cop or the capture time.

    Carries two witness plays (sequences of states) that end in captures
    attributed to different cops.
    """

    def __init__(self, message, play_a=None, play_b=None):
        super().__init__(message)
        self.play_a = play_a
        self.play_b = play_b
