"""End-to-end pipelines and the corpus verification harness.

Two pipelines ride on the local search.  The planar-subgraph pipeline
(mps) outputs the cactus edges plus a spanning forest between cactus
components, which for a connected input is exactly n - 1 + delta edges.
The triangle pipeline (mpt) outputs the cactus itself and recounts its
triangular faces off the input drawing, confirming the count equals delta.

verify_corpus sweeps a corpus of generator specs, solving each instance
at three strengths in one chain (greedy, then 1-swaps from it, then
2-swaps from the 1-swap optimum), analyzing the 2-swap result, and
taking beta from the parity oracle on every row.  Rows are
computed concurrently but reduced in corpus order, and wall-clock numbers
are confined to the JSON sidecar, so the CSV is byte-identical across
runs with the same corpus and config.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import analyzer
from .analyzer import CactusReport, analyze_cactus
from .cactus import cactus_to_triples
from .errors import CactusForgeError, IdentityViolationError
from .generators import GeneratorSpec, build
from .local_search import SearchConfig, greedy_initial, local_search
from .oracle import exact_beta_faces
from .plane_graph import PlaneGraph
from .unionfind import DisjointSet

if TYPE_CHECKING:  # fractions and csv load where used, keeping the import light
    from fractions import Fraction

__all__ = [
    "MpsResult",
    "MptResult",
    "BenchRow",
    "CorpusResult",
    "CSV_COLUMNS",
    "mps_pipeline",
    "mpt_pipeline",
    "verify_corpus",
    "acceptance_corpus",
    "report_to_dict",
    "write_csv",
    "write_sidecar",
]


# ----------------------------------------------------------------------
# single-instance pipelines


class MpsResult(NamedTuple):
    """Planar spanning subgraph built from a cactus plus a forest.

    The subgraph keeps every cactus edge and adds, per pair of cactus
    components that some input edge joins, the lexicographically smallest
    such edge until the components are connected within each component of
    the input.  Ratios are exact fractions; ratio_vs_triangulation uses
    the 3n - 6 planar edge maximum as denominator and is None for n < 3.
    """

    edges: tuple[tuple[int, int], ...]
    cactus_triples: tuple[tuple[int, int, int], ...]
    triangle_count: int
    edge_count: int
    input_edge_count: int
    ratio_vs_input: Fraction | None
    ratio_vs_triangulation: Fraction | None
    meets_four_ninths: bool | None  # None when the input is not a triangulation


class MptResult(NamedTuple):
    """The cactus as a plane subgraph, with its face count recounted."""

    cactus_triples: tuple[tuple[int, int, int], ...]
    output_triangles: int
    f3_internal_input: int
    ratio: Fraction | None
    meets_one_sixth: bool | None  # None when t < 2 or f3_internal is 0


def mps_pipeline(g: PlaneGraph, cfg: SearchConfig = SearchConfig()) -> MpsResult:
    """Cactus edges plus a lexicographically-first inter-component forest.

    Works per component of a disconnected input; the exact edge count
    n - (input components) + delta is re-checked and a mismatch raised as
    an implementation bug.
    """
    c, _ = local_search(g, cfg)
    kept: set[tuple[int, int]] = set()
    for tid in c.triangle_ids:
        kept.update(g.triangles[tid].edges)

    uf = DisjointSet(g.n)
    for v, r in enumerate(c.labels()):
        uf.union(v, r)
    for u, v in sorted(g.edge_set):
        if uf.union(u, v):
            kept.add((u, v) if u < v else (v, u))

    delta = len(c)
    expected = g.n - g.comp_count + delta
    if len(kept) != expected:
        raise IdentityViolationError(
            f"spanning subgraph has {len(kept)} edges, expected "
            f"n - c + delta = {g.n} - {g.comp_count} + {delta} = {expected}"
        )

    from fractions import Fraction
    ratio_in = Fraction(len(kept), g.edge_count) if g.edge_count else None
    ratio_tri = Fraction(len(kept), 3 * g.n - 6) if g.n >= 3 else None
    is_triangulation = g.connected and g.edge_count == 3 * g.n - 6
    meets = None
    if is_triangulation and ratio_tri is not None:
        meets = ratio_tri >= Fraction(4, 9)
    return MpsResult(
        edges=tuple(sorted(kept)),
        cactus_triples=tuple(tuple(t) for t in cactus_to_triples(c)),
        triangle_count=delta,
        edge_count=len(kept),
        input_edge_count=g.edge_count,
        ratio_vs_input=ratio_in,
        ratio_vs_triangulation=ratio_tri,
        meets_four_ninths=meets,
    )


def mpt_pipeline(g: PlaneGraph, cfg: SearchConfig = SearchConfig()) -> MptResult:
    """Solve, then recount the cactus's triangular faces off the input drawing.

    The faces of the cactus alone are regions of host faces: deleting an
    edge merges the two faces on its sides, which one union-find tracks.
    Every cactus triangle bounds an empty face of the input, and deleting
    the other edges cannot disturb it, so each must stay a region of its
    own.  No other region is bounded by exactly three kept darts, except
    that a lone triangle shows a second 3-walk on its far side; so the
    count is delta, plus one exactly when delta == 1.  Mismatches are
    raised as implementation bugs.
    """
    c, _ = local_search(g, cfg)
    twin, face_of = g.twin, g.face_of_dart
    kept: set[int] = set()
    for tid in c.triangle_ids:
        for u, v in g.triangles[tid].edges:
            d = g.dart_id(u, v)
            kept.update((d, twin[d]))
    regions = DisjointSet(len(g.faces))
    for d in range(g.dart_count):
        if d not in kept:
            regions.union(face_of[d], face_of[twin[d]])
    delta = len(c)
    merged = [
        tid
        for tid in c.triangle_ids
        if regions.size[regions.find(g.triangles[tid].face_id)] != 1
    ]
    if merged:
        raise IdentityViolationError(
            f"faces of cactus triangles {merged} merged with other regions "
            f"once the other edges are dropped"
        )
    sides = Counter(regions.find(face_of[d]) for d in kept)
    three = sum(1 for count in sides.values() if count == 3)
    expected = delta + (1 if delta == 1 else 0)
    if three != expected:
        raise IdentityViolationError(
            f"the cactus alone has {three} regions bounded by three darts, "
            f"expected {expected}"
        )
    f3 = g.f3_internal
    from fractions import Fraction
    ratio = Fraction(delta, f3) if f3 else None
    meets = None
    if cfg.t >= 2 and f3:
        meets = 6 * delta >= f3
    return MptResult(
        cactus_triples=tuple(tuple(t) for t in cactus_to_triples(c)),
        output_triangles=delta,
        f3_internal_input=f3,
        ratio=ratio,
        meets_one_sixth=meets,
    )


# ----------------------------------------------------------------------
# corpus harness


class BenchRow(NamedTuple):
    """One corpus instance's numbers.

    Wall-clock fields are excluded from the CSV (see CSV_COLUMNS) so the
    CSV stays deterministic; they travel in the JSON sidecar instead.
    beta_faces is the parity oracle's beta over the triangular faces; it
    is None only on a row that failed before the oracle ran.  The
    sidecar's oracle_status says whether it reached the ceiling (and so
    is certain).  failures is empty on a clean row.
    """

    instance: str
    n: int
    edges: int
    f3_internal: int
    f3_all: int
    delta_greedy: int | None
    delta_1swap: int | None
    delta_2swap: int | None
    beta_faces: int | None
    slack_2swap: int | None  # 6 * delta_2swap - f3_internal
    ok: bool
    failures: tuple[str, ...]
    wall_solve_s: float = 0.0
    wall_analyze_s: float = 0.0
    wall_oracle_s: float = 0.0


CSV_COLUMNS = (
    "instance",
    "n",
    "edges",
    "f3_internal",
    "f3_all",
    "delta_greedy",
    "delta_1swap",
    "delta_2swap",
    "beta_faces",
    "slack_2swap",
    "ok",
    "failures",
)


class CorpusResult(NamedTuple):
    rows: tuple[BenchRow, ...]
    reports: tuple[dict, ...]  # JSON-ready analyzer sidecar, corpus order

    @property
    def failures(self) -> tuple[tuple[str, str], ...]:
        """(instance label, message) for every row failure, in corpus order."""
        return tuple((row.instance, msg) for row in self.rows for msg in row.failures)

    @property
    def strict_discrepancies(self) -> tuple[str, ...]:
        return tuple(
            miss for side in self.reports for miss in side.get("strict_discrepancies", ())
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def identity_failures(self) -> tuple[tuple[str, str], ...]:
        return tuple(f for f in self.failures if f[1].startswith("identity:"))


def _format_exc() -> str:
    import traceback  # only a failed row loads it, not the package import

    return traceback.format_exc()


def report_to_dict(report: CactusReport) -> dict:
    """Flatten a CactusReport into JSON-serializable plumbing."""
    comps = []
    for r in report.components:
        comps.append(
            {
                "vertices": list(r.vertices),
                "p": r.cactus_count,
                "q": r.anchored_count,
                "triangle_types": list(r.cactus_type_counts),
                "chord_types": list(r.chord_type_counts),
                "outer": {
                    "len": r.outer_len,
                    "occupied": r.outer_occupied,
                    "free": r.outer_free,
                },
                "all_heavy": r.all_heavy,
                "verified_optimal": r.verified_optimal,
                "eq_residual_half": r.eq_residual_half,
                "super_faces": [
                    {
                        "is_outer": f.is_outer,
                        "boundary_len": f.boundary_len,
                        "occupied": f.occupied,
                        "free": f.free,
                        "survive": f.survive,
                        "gain_half": f.gain_half,
                        "label": list(f.label) if f.label is not None else None,
                        "floor_half": f.floor_half,
                        "gain_ok": f.gain_ok,
                    }
                    for f in r.super_faces
                ],
                "verdicts": [
                    {
                        "name": v.name,
                        "ok": v.ok,
                        "required": v.required,
                        "detail": v.detail,
                    }
                    for v in r.verdicts
                ],
                "notes": list(r.notes),
            }
        )
    return {
        "maximal": report.maximal,
        "verified_optimal": report.verified_optimal,
        "ok": report.ok,
        "singletons": report.singleton_count,
        "anchored_total": report.anchored_total,
        "triangular_faces": report.triangular_faces,
        "verdicts": [
            {"name": v.name, "ok": v.ok, "required": v.required, "detail": v.detail}
            for v in report.verdicts
        ],
        "components": comps,
    }


def _strict_misses(label: str, report: CactusReport) -> list[str]:
    out = []
    for i, r in enumerate(report.components):
        for v in r.verdicts:
            if v.name == "strict-coverage-bound" and not v.ok and not v.required:
                out.append(f"{label}[component {i}]: {v.detail}")
    return out


def _bench_one(spec: GeneratorSpec, cfg: SearchConfig) -> tuple[BenchRow, dict]:
    """Solve one instance at all three strengths and grade the result.

    Greedy runs once; the 1-swap search starts from its cactus and the
    2-swap search from the 1-swap optimum, which gives the 2-swap optimum
    a search from greedy would (``local_search``).  The sidecar's search
    entry holds both searches' ``moves_examined`` and applied move
    counts, so ls2_examined and ls2_moves cover only the 2-swap search
    from the 1-swap optimum; it is null when the row failed before both
    searches finished.

    Never raises: every error becomes a failure string on the row, and
    its traceback goes to the sidecar, so a broken instance cannot take
    down the sweep.  The sidecar also records how sure beta is:
    oracle_status is "parity-ceiling" (the parity rank reached the
    ceiling, so beta is certain), "parity" (below the ceiling, so beta is
    right with high probability) or "error" (the row failed before or
    inside the oracle), next to that ceiling.  certified_by says how the
    verifier settled the 2-swap result: "ceiling" (delta_2swap equals
    that same ceiling, ``g.ceiling``, so no scan ran), "verifier" (it
    ran the move scan) or None (the row failed before the verifier).
    """
    label = spec.label()
    failures: list[str] = []
    sidecar: dict = {
        "instance": label, "oracle_status": "error", "ceiling": None, "certified_by": None,
        "search": None,
    }
    try:
        g = build(spec)
    except Exception as exc:
        # Library errors already name the bad parameter; anything else is
        # a bug, so its type is worth keeping.
        detail = str(exc)
        if not isinstance(exc, CactusForgeError):
            detail = f"{type(exc).__name__}: {detail}"
        sidecar["traceback"] = _format_exc()
        row = BenchRow(label, 0, 0, 0, 0, None, None, None, None, None,
                       False, (f"generate: {detail}",))
        return row, sidecar

    d_greedy = d1 = d2 = None
    beta = None
    slack = None
    t_greedy = t_ls1 = t_ls2 = t_analyze = t_verify = t_oracle = 0.0
    try:
        start = time.perf_counter()
        c0 = greedy_initial(g, cfg.seed)
        d_greedy = len(c0)
        greedy_at = time.perf_counter()
        c1, trace1 = local_search(g, SearchConfig(t=1), start=c0)
        d1 = len(c1)
        ls1_at = time.perf_counter()
        c2, trace2 = local_search(g, SearchConfig(t=2), start=c1)
        d2 = len(c2)
        ls2_at = time.perf_counter()
        t_greedy = greedy_at - start
        t_ls1 = ls1_at - greedy_at
        t_ls2 = ls2_at - ls1_at
        sidecar["search"] = {
            "ls1_examined": trace1.moves_examined,
            "ls1_moves": len(trace1.moves_applied),
            "ls2_examined": trace2.moves_examined,
            "ls2_moves": len(trace2.moves_applied),
        }

        slack = 6 * d2 - g.f3_internal
        if slack < 0:
            failures.append(f"main-bound: 6*{d2} < f3_internal {g.f3_internal}")

        # The verifier is timed on its own for the sidecar; analyze_s
        # still includes it.  At the ceiling it certifies the cactus
        # without scanning, and certified_by says which way it went.  It
        # is looked up on the analyzer module at call time, where
        # analyze_cactus finds it too, so perfbench's tracer (which wraps
        # it there) records this call.
        start = time.perf_counter()
        verified, _ = analyzer.verify_local_optimality(g, c2, 2)
        verified_at = time.perf_counter()
        sidecar["certified_by"] = "ceiling" if c2.at_ceiling else "verifier"
        report = analyze_cactus(g, c2, verified=verified)
        t_analyze = time.perf_counter() - start
        t_verify = verified_at - start
        sidecar.update(report_to_dict(report))
        sidecar["strict_discrepancies"] = _strict_misses(label, report)
        if not report.maximal:
            failures.append("analyzer: 2-swap result is not maximal")
        if not report.verified_optimal:
            failures.append("analyzer: 2-swap result fails the verifier")
        for v in report.failed():
            if v.required:
                failures.append(f"verdict {v.name}: {v.detail}")

        start = time.perf_counter()
        res = exact_beta_faces(g)
        t_oracle = time.perf_counter() - start
        sidecar["oracle_status"] = "parity-ceiling" if res.exhausted else "parity"
        sidecar["ceiling"] = res.ceiling
        beta = res.optimum
        if d2 > beta:
            failures.append(f"oracle: delta_2swap {d2} > beta {beta}")
        if 2 * d_greedy < beta:
            failures.append(f"oracle: 2*delta_greedy {2 * d_greedy} < beta {beta}")
    except IdentityViolationError as exc:
        failures.append(f"identity: {exc}")
        sidecar["traceback"] = _format_exc()
    except Exception as exc:
        failures.append(f"error: {type(exc).__name__}: {exc}")
        sidecar["traceback"] = _format_exc()

    t_solve = t_greedy + t_ls1 + t_ls2
    sidecar["wall"] = {
        "solve_s": round(t_solve, 6),
        "greedy_s": round(t_greedy, 6),
        "ls1_s": round(t_ls1, 6),
        "ls2_s": round(t_ls2, 6),
        "analyze_s": round(t_analyze, 6),
        "verify_s": round(t_verify, 6),
        "oracle_s": round(t_oracle, 6),
    }
    row = BenchRow(
        instance=label,
        n=g.n,
        edges=g.edge_count,
        f3_internal=g.f3_internal,
        f3_all=g.f3_all,
        delta_greedy=d_greedy,
        delta_1swap=d1,
        delta_2swap=d2,
        beta_faces=beta,
        slack_2swap=slack,
        ok=not failures,
        failures=tuple(failures),
        wall_solve_s=t_solve,
        wall_analyze_s=t_analyze,
        wall_oracle_s=t_oracle,
    )
    return row, sidecar


def verify_corpus(
    corpus: Iterable[GeneratorSpec],
    cfg: SearchConfig = SearchConfig(),
    threads: int = 1,
) -> CorpusResult:
    """Run the harness over a corpus and collect rows plus failures.

    Rows come back in corpus order no matter how many workers ran; the
    sweep never aborts on a bad row.  The strict per-component coverage
    bound is tracked as a discrepancy log, not as a failure.  The pool
    holds at most one process per row and per CPU, whatever the requested
    count: it starts all of them at the first row it is handed.  threads
    counts the workers; 0 means one, and a negative count, a bool or a
    non-int raises ``CactusForgeError``.  So does a corpus entry that is
    not a ``GeneratorSpec``, before any row runs: each row reads its
    spec's label before the guard that keeps the sweep from raising.
    cfg supplies only the greedy seed: every row runs t = 1 and then
    t = 2, whatever cfg.t says.
    """
    # True == 1, so a bool would otherwise run as one worker.
    if type(threads) is not int or threads < 0:
        raise CactusForgeError(f"--threads must be an int of at least 0, got {threads!r}")
    specs = list(corpus)
    for i, spec in enumerate(specs):
        if not isinstance(spec, GeneratorSpec):
            raise CactusForgeError(f"corpus entry {i} is not a GeneratorSpec: {spec!r}")
    workers = min(threads, len(specs), os.cpu_count() or 1)
    pairs: list[tuple[BenchRow, dict]]
    if workers <= 1:
        pairs = [_bench_one(s, cfg) for s in specs]
    else:
        # Imported here: it loads multiprocessing, which the default single
        # worker never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_bench_one, specs, [cfg] * len(specs)))

    return CorpusResult(
        tuple(row for row, _ in pairs), tuple(side for _, side in pairs)
    )


def acceptance_corpus(rmp_count: int = 200) -> tuple[GeneratorSpec, ...]:
    """The default corpus: seeded triangulations plus the fixed families.

    Triangulation sizes cycle over n in [4, 64] as the seed increases, so
    any prefix of the corpus still spans small and large instances.
    """
    # True == 1, so a bool would otherwise stand for one triangulation.
    if type(rmp_count) is not int or rmp_count < 0:
        raise CactusForgeError(
            f"rmp_count (--rmp-count) must be an int of at least 0, got {rmp_count!r}"
        )
    specs = [
        GeneratorSpec("random_maximal_planar", n=4 + (i % 61), seed=i)
        for i in range(rmp_count)
    ]
    specs.extend(GeneratorSpec("wheel", n=k) for k in range(4, 11))
    specs.extend(GeneratorSpec("fan", n=k) for k in range(4, 11))
    specs.extend(
        GeneratorSpec("platonic", name=name)
        for name in ("tetrahedron", "octahedron", "icosahedron")
    )
    specs.append(GeneratorSpec("grid_triangulation", width=3, height=3))
    specs.append(GeneratorSpec("grid_triangulation", width=4, height=4))
    return tuple(specs)


# ----------------------------------------------------------------------
# serialization


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(value)
    return str(value)


def write_csv(rows: Sequence[BenchRow], path) -> None:
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(getattr(row, col)) for col in CSV_COLUMNS])


def write_sidecar(reports: Sequence[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(list(reports), fh, indent=2)
        fh.write("\n")
