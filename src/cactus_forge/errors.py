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


class EmptyVertexSetError(CactusForgeError, ValueError):
    """An induced subgraph was requested for the empty vertex set."""


class TooFewVerticesError(CactusForgeError, ValueError):
    """Operation requires at least 3 vertices."""


class DisconnectedError(CactusForgeError, ValueError):
    """Operation requires a connected graph."""


class UnknownTriangleError(CactusForgeError, KeyError):
    """A triangle was referenced that is not a candidate triangle of the host graph."""


class TriangleNotInCactusError(CactusForgeError, KeyError):
    """A triangle was referenced that is not part of the cactus."""


class InvalidCactusError(CactusForgeError, ValueError):
    """A triangle set violates the cactus conditions (shared edge or a
    cycle through several triangles)."""


class CandidateGuardError(CactusForgeError, ValueError):
    """The witness search was handed more candidates than its guard allows."""

    def __init__(self, count: int, guard: int):
        super().__init__(
            f"{count} candidate triangles exceed the witness guard of {guard}; "
            "pass allow_large=True (--allow-large on the command line) to override"
        )
        self.count = count
        self.guard = guard


class BudgetExceededError(CactusForgeError, RuntimeError):
    """The witness search ran out of rank evaluations.

    The value is already known and rides along as ``.result``, with the
    evaluations made so far as its ``nodes_explored``; no witness does.
    """

    def __init__(self, result):
        super().__init__(
            f"witness search exhausted its budget after {result.nodes_explored} "
            "rank evaluations"
        )
        self.result = result


class NotAComponentError(CactusForgeError, ValueError):
    """The vertex set handed to the analyzer is not one cactus component."""


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
    """A generator was asked for fewer vertices than its family supports."""


class UnknownFamilyError(CactusForgeError, ValueError):
    """Unknown generator family or fixture name."""
