"""Output checks the benchmark applies to every instance it runs.

Each function returns a list of failure messages, empty when the outputs
hold up; none raises on bad output, so one broken instance cannot end a
run.  The checks restate the guarantees the program claims:

- a cactus re-validates from scratch (``is_valid_cactus`` on the host
  graph, ``triples_form_cactus`` on the bare triples);
- delta_greedy <= delta_1swap <= delta_2swap <= floor((n - c) / 2), with c
  the number of graph components;
- 6 * delta_2swap >= f3_internal;
- delta_2swap <= beta <= 2 * delta_greedy wherever beta is exact.
"""

from __future__ import annotations

from cactus_forge import is_valid_cactus
from cactus_forge.cactus import triples_form_cactus
from cactus_forge.errors import CactusForgeError


def ceiling(n: int, comps: int) -> int:
    """No cactus on n vertices in c graph components has more triangles."""
    return (n - comps) // 2


def check_counts(
    n: int,
    comps: int,
    f3_internal: int,
    d2: int | None,
    d_greedy: int | None = None,
    d1: int | None = None,
    beta: int | None = None,
) -> list[str]:
    """The delta chain, the ceiling, the coverage bound and the beta sandwich."""
    if d2 is None:
        return ["no 2-swap result"]
    out = []
    chain = [d for d in (d_greedy, d1, d2) if d is not None]
    if chain != sorted(chain):
        out.append(f"delta chain greedy/1swap/2swap {d_greedy}/{d1}/{d2} is not monotone")
    top = ceiling(n, comps)
    if d2 > top:
        out.append(f"delta_2swap {d2} exceeds the ceiling floor(({n} - {comps}) / 2) = {top}")
    if 6 * d2 < f3_internal:
        out.append(f"coverage bound: 6 * {d2} < f3_internal {f3_internal}")
    if beta is not None:
        if d2 > beta:
            out.append(f"delta_2swap {d2} > exact beta {beta}")
        if d_greedy is not None and beta > 2 * d_greedy:
            out.append(f"exact beta {beta} > 2 * delta_greedy {d_greedy}")
    return out


def check_cactus(g, triples) -> list[str]:
    """Re-validate a cactus given as vertex triples against its host graph."""
    by_vertices = {t.vertices: t.id for t in g.triangles}
    ids = []
    for triple in triples:
        key = tuple(sorted(triple))
        if key not in by_vertices:
            return [f"{list(triple)} is not a triangular face of the instance"]
        ids.append(by_vertices[key])
    try:
        valid = is_valid_cactus(g, ids) and triples_form_cactus(triples)
    except CactusForgeError as exc:
        return [f"cactus check raised {type(exc).__name__}: {exc}"]
    return [] if valid else ["triangles do not form a cactus"]
