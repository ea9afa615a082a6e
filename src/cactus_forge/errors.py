"""Exception hierarchy for cactus_forge.

Construction errors name the first offending vertex/edge so CLI users can
locate the problem in their input file.
"""


class CactusForgeError(Exception):
    """Base class for all library errors."""


class InstanceFormatError(CactusForgeError, ValueError):
    """Malformed instance data (bad JSON shape, indices out of range, ...)."""


class LoopEdgeError(InstanceFormatError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} lists itself as a neighbor (loop edge)")
        self.vertex = vertex


class ParallelEdgeError(InstanceFormatError):
    def __init__(self, u: int, v: int):
        super().__init__(f"vertex {u} lists neighbor {v} more than once (parallel edge)")
        self.edge = (u, v)


class AsymmetricAdjacencyError(InstanceFormatError):
    def __init__(self, u: int, v: int):
        super().__init__(f"{u} lists {v} as a neighbor but {v} does not list {u}")
        self.edge = (u, v)


class NonPlanarEmbeddingError(InstanceFormatError):
    def __init__(self, detail: str):
        super().__init__(f"rotation system is not a planar embedding: {detail}")


class BadOuterDesignatorError(InstanceFormatError):
    def __init__(self, detail: str):
        super().__init__(f"bad outer-face designator: {detail}")


class UnknownTriangleError(CactusForgeError, KeyError):
    """A triangle was referenced that is not a candidate triangle of the host graph."""

    # KeyError's str() is the repr of its message; print the message plain.
    __str__ = BaseException.__str__


class TriangleNotInCactusError(CactusForgeError, KeyError):
    """A triangle was referenced that is not part of the cactus."""

    __str__ = BaseException.__str__


class InvalidCactusError(CactusForgeError, ValueError):
    """A triangle set violates the cactus conditions (shared edge or a
    cycle through several triangles)."""


class BudgetExceededError(CactusForgeError, RuntimeError):
    """The witness search could need more rank evaluations than its budget.

    It is raised before the search, after the value's one evaluation:
    the value rides along as ``.result``, with ``nodes_explored`` 1, and
    no witness does.
    """

    def __init__(self, result, needed: int, budget: int):
        super().__init__(
            f"the witness may need {needed} rank evaluations, more than the "
            f"budget of {budget}; raise it with --budget (beta = {result.optimum})"
        )
        self.result = result


class NotLocallyOptimalError(CactusForgeError, ValueError):
    """A structural consistency check failed and the input cactus is in fact
    not locally optimal (an improving swap exists)."""

    def __init__(self, detail: str, witness=None):
        super().__init__(detail)
        self.witness = witness


class IdentityViolationError(CactusForgeError, AssertionError):
    """An exact combinatorial identity failed; by construction this means an
    implementation bug, never bad input."""


class TooSmallError(CactusForgeError, ValueError):
    """A generator was given too few vertices, or a negative flip count."""


class InvalidSpecError(CactusForgeError, ValueError):
    """A generator spec holds a count or seed that is not an int."""


class UnknownFamilyError(CactusForgeError, ValueError):
    """Unknown generator family or fixture name."""
