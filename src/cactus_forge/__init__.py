"""Triangular-cactus subgraphs of plane graphs.

Find a large set of edge-disjoint triangular faces with a 2-swap local
search, check it against beta from a matroid parity oracle, analyze the
component structure of the result, and drive planar-subgraph
approximation pipelines from the command line.
"""

from .analyzer import CactusReport, ComponentReport, analyze_cactus
from .cactus import (
    TriangularCactus,
    cactus_from_triples,
    cactus_to_triples,
    is_valid_cactus,
)
from .errors import (
    CactusForgeError,
    IdentityViolationError,
    InstanceFormatError,
    InvalidCactusError,
    NotLocallyOptimalError,
)
from .generators import GeneratorSpec, build as build_instance
from .local_search import (
    SearchConfig,
    SearchTrace,
    SwapMove,
    find_improving_swap,
    greedy_initial,
    local_search,
    verify_local_optimality,
)
from .oracle import (
    OracleResult,
    exact_beta_all_triangles,
    exact_beta_faces,
    max_cactus,
)
from .pipeline import (
    BenchRow,
    CorpusResult,
    MpsResult,
    MptResult,
    acceptance_corpus,
    mps_pipeline,
    mpt_pipeline,
    verify_corpus,
)
from .plane_graph import PlaneGraph, load_instance, relabeled

__version__ = "0.1.0"

__all__ = [
    "PlaneGraph",
    "load_instance",
    "relabeled",
    "TriangularCactus",
    "cactus_from_triples",
    "cactus_to_triples",
    "is_valid_cactus",
    "CactusForgeError",
    "InstanceFormatError",
    "InvalidCactusError",
    "NotLocallyOptimalError",
    "IdentityViolationError",
    "SearchConfig",
    "SearchTrace",
    "SwapMove",
    "greedy_initial",
    "find_improving_swap",
    "local_search",
    "verify_local_optimality",
    "OracleResult",
    "exact_beta_faces",
    "exact_beta_all_triangles",
    "max_cactus",
    "CactusReport",
    "ComponentReport",
    "analyze_cactus",
    "GeneratorSpec",
    "build_instance",
    "MpsResult",
    "MptResult",
    "BenchRow",
    "CorpusResult",
    "mps_pipeline",
    "mpt_pipeline",
    "verify_corpus",
    "acceptance_corpus",
    "__version__",
]
