"""The candidate-triangle table built the long way, keyed by edges.

The package keys each triangular face by its sorted vertex triple.  This
reference keys it by the sorted triple of its sorted edges, read dart by
dart off the face boundary, and sorts each candidate's face ids itself,
so it leans on neither the face's vertex list nor the face order.
"""

from __future__ import annotations

from cactus_forge import PlaneGraph
from cactus_forge.plane_graph import Triangle


def collect_triangles(g: PlaneGraph) -> tuple[Triangle, ...]:
    by_edges: dict[tuple, list[int]] = {}
    for f in g.faces:
        if not f.is_triangle:
            continue
        key = tuple(
            sorted(
                tuple(sorted((g.tail[d], g.head[d]))) for d in f.boundary
            )
        )
        by_edges.setdefault(key, []).append(f.id)

    # Sorting the edge triples also sorts the vertex triples: the triple
    # (a, b), (a, c), (b, c) with a < b < c compares by (a, b, c) first.
    records = []
    for tid, key in enumerate(sorted(by_edges)):
        face_ids = tuple(sorted(by_edges[key]))
        verts = tuple(sorted({v for e in key for v in e}))
        bounded = [fid for fid in face_ids if fid != g.outer_face_id]
        face_id = bounded[0] if len(bounded) == 1 else min(face_ids)
        records.append(
            Triangle(
                id=tid,
                vertices=verts,
                edges=key,
                face_ids=face_ids,
                face_id=face_id,
            )
        )
    return tuple(records)
