"""Structural certificates for one cactus component at a time.

Given a plane graph and a triangular cactus in it, this module dissects a
single component of the cactus partition: which edges of the component
subgraph carry "cross" triangles (triangular faces with exactly two
endpoints inside the component), how heavily each cactus triangle is
loaded by those crosses, and what the component skeleton looks like once
crossless chords are removed.  The per-face bookkeeping (occupied and
free boundary sides, surviving triangular faces, gain) is what the
coverage bound q <= 6p per component ultimately rests on, so every count
here is re-checked against an independent recount and any mismatch is
raised as an implementation bug rather than reported as data.

Whether the cactus is 2-swap optimal is decided once, by analyze_cactus
(with the verifier, or on the caller's word).
What the stages read of the host (component labels, cross triangles,
each component's triangles and darts) is tabled once per cactus and
shared by every component's report.

Vocabulary used throughout:

* component: vertex set of one cactus component (the whole partition
  class, so a singleton for untouched vertices).
* chord: an edge of the component subgraph that is not a cactus edge.
* cross triangle: a triangular face of the host with exactly two
  vertices in the component; its unique component edge "supports" it.
* heavy: a cactus triangle whose corner split collects enough crosses
  (see TriangleClass.heavy for the exact two-clause test).
* skeleton: the component subgraph minus crossless chords, read off the
  host drawing (its faces are host faces merged across deleted edges, not
  a re-embedding); its faces other than the cactus triangle faces are the
  super-faces.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple

from .cactus import TriangularCactus
from .errors import IdentityViolationError, NotLocallyOptimalError
from .local_search import check_host, verify_local_optimality
from .plane_graph import PlaneGraph
from .unionfind import DisjointSet

__all__ = [
    "CrossTriangle",
    "EdgeClass",
    "TriangleClass",
    "Skeleton",
    "SuperFace",
    "Verdict",
    "ComponentReport",
    "CactusReport",
    "analyze_cactus",
]


# ----------------------------------------------------------------------
# result records


class CrossTriangle(NamedTuple):
    """One triangular face poking out of the component.

    side_dart is the host dart of the supporting edge whose left face is
    this triangle, i.e. it tells you which side of the edge the cross is
    drawn on.  landing is the smallest vertex of the cactus-partition
    component containing the third corner (a stable, order-free id).
    """

    face_id: int
    side_dart: int
    third_vertex: int
    landing: int


class EdgeClass(NamedTuple):
    """Classification of one edge of the component subgraph."""

    edge: tuple[int, int]
    kind: str  # "cactus" or "type-0" / "type-1" / "type-2" for chords
    owner: int | None  # cactus triangle id for cactus edges
    cross_count: int
    crosses: tuple[CrossTriangle, ...]


class TriangleClass(NamedTuple):
    """Cross load and heaviness of one cactus triangle.

    cross_type counts how many of the triangle's own edges support a
    cross.  For each edge, the corner split of the component at this
    triangle yields two parts; the chords joining those parts that carry
    at least one cross are that edge's spanning chords, and

        load(edge) = own crosses + crosses on its spanning chords.

    The triangle is heavy when the total load is at least four, or when a
    single edge has load at least three while the other two have none.
    The base edge of a heavy triangle is its most loaded edge (smallest
    pair on ties) and the free vertex is the corner opposite the base.
    """

    triangle_id: int
    vertices: tuple[int, int, int]
    cross_type: int
    heavy: bool
    total_load: int
    load: Mapping[tuple[int, int], int]
    spanning_chords: Mapping[tuple[int, int], tuple[tuple[int, int], ...]]
    base_edge: tuple[int, int] | None
    free_vertex: int | None


class Skeleton(NamedTuple):
    """Component subgraph minus crossless chords, read off the host drawing.

    Face i is a region of host faces merged across the deleted edges:
    host_faces[i] holds them and face_darts[i] its boundary host darts,
    ascending.  Faces are numbered by their smallest host dart.
    cactus_face_of gives, per cactus triangle, the skeleton face that is
    exactly the triangle's own host face; every other skeleton face is a
    super-face.  outer_super_face is None in the degenerate case where a
    cactus triangle itself bounds the outer face.
    """

    face_darts: tuple[tuple[int, ...], ...]
    host_faces: tuple[frozenset[int], ...]
    cactus_face_of: Mapping[int, int]
    super_face_ids: tuple[int, ...]
    outer_super_face: int | None


class SuperFace(NamedTuple):
    """Occupancy accounting for one skeleton super-face.

    A boundary side is occupied when the host face on that side is a
    cross triangle.  Capacity is |free| + |occupied| / 2, tracked in
    halves to stay in integers; gain is capacity minus the surviving
    triangular host faces (all three corners inside the component) drawn
    in this region.  sides lists (edge, occupied) per boundary dart in
    ascending host-dart order.  label = (occupied sides, free sides of
    single-crossed chords, base sides of crossless triangles); it and the
    fields after it are only filled in on all-heavy components.
    """

    face_id: int
    is_outer: bool
    boundary_len: int
    occupied: int
    free: int
    survive: int
    capacity_half: int
    gain_half: int
    sides: tuple[tuple[tuple[int, int], bool], ...]
    label: tuple[int, int, int] | None = None
    friendly_pairs: tuple[tuple[int, int, int], ...] = ()
    floor_half: int | None = None
    gain_ok: bool | None = None


class Verdict(NamedTuple):
    """One named check with its outcome.

    required marks checks that must hold for the report to count as
    clean; the rest are informational (bounds that the input was not
    promised to satisfy, e.g. on components with light triangles).
    """

    name: str
    ok: bool
    required: bool
    detail: str = ""


class ComponentReport(NamedTuple):
    """Everything the analyzer knows about one cactus component."""

    vertices: tuple[int, ...]
    cactus_count: int  # triangles in this component
    anchored_count: int  # triangular host faces with >= 2 corners inside
    cactus_type_counts: tuple[int, int, int, int]
    chord_type_counts: tuple[int, int, int]
    outer_len: int
    outer_occupied: int
    outer_free: int
    all_heavy: bool
    verified_optimal: bool
    edges: Mapping[tuple[int, int], EdgeClass]
    triangles: Mapping[int, TriangleClass]
    skeleton: Skeleton
    super_faces: tuple[SuperFace, ...]
    eq_residual_half: int | None
    verdicts: tuple[Verdict, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts if v.required)

    def failed(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if not v.ok)


class CactusReport(NamedTuple):
    """Whole-cactus roll-up of the per-component reports."""

    components: tuple[ComponentReport, ...]
    singleton_count: int
    anchored_total: int
    triangular_faces: int
    maximal: bool
    verified_optimal: bool
    verdicts: tuple[Verdict, ...]

    @property
    def ok(self) -> bool:
        if not all(v.ok for v in self.verdicts if v.required):
            return False
        return all(r.ok for r in self.components)

    def failed(self) -> tuple[Verdict, ...]:
        out = [v for v in self.verdicts if not v.ok]
        for r in self.components:
            out.extend(r.failed())
        return tuple(out)


# ----------------------------------------------------------------------
# the per-component engine

# EdgeClass.kind of a chord, by its number of crosses.
_CHORD_KINDS = ("type-0", "type-1", "type-2")


class _HostTables:
    """What every component's analysis reads of the host and the cactus,
    built once per cactus.

    label is the cactus component label per vertex and landing the
    smallest vertex of each vertex's component.  members lists each
    component's vertices, ascending, keyed by its label in order of the
    smallest member; tri_ids holds each component's cactus triangles and
    inside_of the host darts with both ends in it, both ascending.
    owner_at gives per host dart the cactus triangle owning its edge, or
    None.  apart merges the host faces across every edge whose ends lie
    in two components.  cross_at gives per host dart the triangular face
    on its left and that face's third corner when the dart's two ends
    share a component and the third corner lies outside it (one cross
    triangle per such dart), else None.  survivor_of labels each
    triangular face whose three corners share a component, and is -1 on
    every other face.  maximal
    says that no triangular face has its corners in three components;
    every candidate bounds such a face, so it says no candidate extends
    the cactus.
    """

    def __init__(self, g: PlaneGraph, cactus: TriangularCactus):
        self.g = g
        self.c = cactus
        self.label = label = cactus.labels()
        self.members = members = {}
        for v, r in enumerate(label):
            members.setdefault(r, []).append(v)
        self.landing = [members[r][0] for r in label]
        tail, head, twin, face_of = g.tail, g.head, g.twin, g.face_of_dart
        faces = g.faces
        self.tri_ids = tri_ids = {}
        self.owner_at = owner_at = [None] * g.dart_count
        for tid in cactus.triangle_ids:
            tri = g.triangles[tid]
            tri_ids.setdefault(label[tri.vertices[0]], []).append(tid)
            # The triangle's face is bounded by one dart of each of its edges.
            for d in faces[tri.face_id].boundary:
                owner_at[d] = owner_at[twin[d]] = tid

        self.inside_of = inside_of = {r: [] for r in members}
        self.apart = DisjointSet(len(faces))
        union = self.apart.union
        for d, (u, v) in enumerate(zip(tail, head)):
            r = label[u]
            if r == label[v]:
                inside_of[r].append(d)
            elif d < twin[d]:
                union(face_of[d], face_of[twin[d]])

        self.cross_at = cross_at = [None] * g.dart_count
        self.survivor_of = survivor_of = [-1] * len(faces)
        self.maximal = True
        for f in faces:
            if not f.is_triangle:
                continue
            # A triangular face is one walk a -> b -> c -> a.
            d1, d2, d3 = f.boundary
            a, b, c = tail[d1], tail[d2], tail[d3]
            la, lb, lc = label[a], label[b], label[c]
            if la == lb == lc:
                survivor_of[f.id] = la
            elif la == lb:
                cross_at[d1] = (f.id, c)
            elif lb == lc:
                cross_at[d2] = (f.id, a)
            elif lc == la:
                cross_at[d3] = (f.id, b)
            else:
                self.maximal = False


class _ComponentAnalysis:
    """One component, analyzed in a single straight pass.

    report() runs the stages in order (edges -> triangles -> skeleton ->
    super-faces -> verdicts) and hands each stage what the earlier ones
    built, so on bad input the earliest failed check is the one raised.
    Whether the cactus is 2-swap optimal is the caller's answer.
    """

    def __init__(self, tables: _HostTables, root: int):
        self.t = tables
        self.g = tables.g
        self.c = tables.c
        self.root = root
        self.members = tables.members[root]
        self.s = frozenset(self.members)
        self.tri_ids = tables.tri_ids[root]
        self.inside = tables.inside_of[root]

    def report(self, verified: bool) -> ComponentReport:
        g, s = self.g, self.s
        edges, chords = self._edges()
        tris, notes = self._triangles(edges)
        if notes and not verified:
            # The shape constraints are consequences of 2-swap optimality,
            # so a violation on an input not known to be optimal is the
            # caller's problem; on a verified optimum it is kept and fails
            # the heavy-shape verdict below.
            raise NotLocallyOptimalError(notes[0])
        occupied_darts = {
            cr.side_dart for ec in edges.values() for cr in ec.crosses
        }
        skel, outer_len, outer_occ = self._regions(chords, occupied_darts)
        outer_free = outer_len - outer_occ
        all_heavy = bool(tris) and all(tc.heavy for tc in tris.values())
        # Labels need every triangle heavy and every shape check clean;
        # the floors they grade against hold on verified optima only.
        labels_on = all_heavy and not notes
        graded = verified and labels_on
        supers = self._super_faces(
            edges, tris, skel, occupied_darts, labels_on, graded, outer_free
        )

        p = len(self.tri_ids)
        p_types = [0, 0, 0, 0]
        for tc in tris.values():
            p_types[tc.cross_type] += 1
        a_types = [0, 0, 0]
        for ec in edges.values():
            if ec.owner is None:
                a_types[ec.cross_count] += 1
        a1, a2 = a_types[1], a_types[2]

        # Counted straight off the host faces, as the independent side of
        # the recount identity.
        anchored = 0
        for f in g.faces:
            if f.is_triangle:
                a, b, c = f.vertices
                anchored += (a in s) + (b in s) + (c in s) >= 2
        survive_total = sum(r.survive for r in supers)
        from_cactus = sum(t * n for t, n in enumerate(p_types))
        recount = p + from_cactus + a1 + 2 * a2 + survive_total
        if anchored != recount:
            raise IdentityViolationError(
                f"anchored-face recount mismatch: {anchored} counted directly, "
                f"{recount} = {p} + {from_cactus} + {a1} + 2*{a2} + {survive_total}"
            )

        n_supers = len(supers)
        if n_supers != a1 + a2 + 1:
            raise IdentityViolationError(
                f"{n_supers} super-faces but {a1} + {a2} + 1 crossed chords + 1"
            )

        verdicts = [
            Verdict(
                "anchored-recount",
                True,
                True,
                f"{anchored} = {p} + {from_cactus} + {a1} + 2*{a2} + {survive_total}",
            ),
            Verdict(
                "super-face-count", True, True, f"{n_supers} = {a1} + {a2} + 1"
            ),
            Verdict(
                "coverage-bound",
                anchored <= 6 * p,
                True,
                f"{anchored} <= {6 * p}",
            ),
        ]

        bad_doubles = [
            ec.edge
            for ec in edges.values()
            if ec.kind == "type-2" and ec.crosses[0].landing == ec.crosses[1].landing
        ]
        verdicts.append(
            Verdict(
                "double-cross-landings",
                not bad_doubles,
                True,
                f"both crosses of {bad_doubles[0]} land in one component"
                if bad_doubles
                else "every double-crossed chord lands in two components",
            )
        )
        if notes:
            verdicts.append(
                Verdict("heavy-shape", False, True, "; ".join(notes))
            )

        eq_residual = None
        if labels_on:
            p1 = p_types[1]
            cap_total = sum(r.capacity_half for r in supers)
            cap_expected = 6 * p - p1 + 3 * a1 + 2 * a2
            if cap_total != cap_expected:
                raise IdentityViolationError(
                    f"capacity sum {cap_total} != {cap_expected} "
                    f"(= 6*{p} - {p1} + 3*{a1} + 2*{a2})"
                )
            verdicts.append(
                Verdict(
                    "capacity-sum", True, True, f"{cap_total} = {cap_expected}"
                )
            )
            gain_total = sum(r.gain_half for r in supers)
            eq_residual = (8 * p + p1 + 5 * a1 + 6 * a2 - gain_total) - 2 * anchored
            if eq_residual != 0:
                raise IdentityViolationError(
                    f"gain accounting residual {eq_residual} (should be 0)"
                )
            verdicts.append(Verdict("gain-accounting", True, True, "residual 0"))

            # The super-faces that each triangle's two free sides fall on.
            free_side_faces: dict[int, list[int]] = {}
            for r in supers:
                for e, _ in r.sides:
                    ec = edges[e]
                    if ec.kind == "cactus" and e != tris[ec.owner].base_edge:
                        free_side_faces.setdefault(ec.owner, []).append(r.face_id)
            pairing_bad = [
                tid
                for tid, fids in sorted(free_side_faces.items())
                if len(fids) != 2 or fids[0] != fids[1]
            ]
            verdicts.append(
                Verdict(
                    "free-sides-paired",
                    not pairing_bad,
                    False,
                    f"free sides of triangle {pairing_bad[0]} fall on "
                    "different super-faces"
                    if pairing_bad
                    else "both free sides of every triangle share a super-face",
                )
            )

        if graded:
            bad = [r for r in supers if not r.gain_ok]
            verdicts.append(
                Verdict(
                    "gain-floors",
                    not bad,
                    True,
                    self._floor_detail(bad[0]) if bad else "every super-face "
                    "meets its floor",
                )
            )
            verdicts.append(
                Verdict(
                    "skeleton-size",
                    n_supers <= 2 * p - 2 if p >= 2 else True,
                    p >= 2,
                    f"{n_supers} super-faces with {p} triangles",
                )
            )
            bad_pairs = [
                pr
                for r in supers
                for pr in r.friendly_pairs
                if tris[pr[0]].cross_type == 1 or tris[pr[1]].cross_type == 1
            ]
            verdicts.append(
                Verdict(
                    "friendly-pairs-plain",
                    not bad_pairs,
                    True,
                    f"friendly pair {bad_pairs[0]} involves a crossed triangle"
                    if bad_pairs
                    else "no friendly pair touches a crossed triangle",
                )
            )
            if skel.outer_super_face is None:
                notes.append(
                    "a cactus triangle bounds the host outer face, so there "
                    "is no outer super-face to grade"
                )
            if p == 1:
                notes.append("unexpected: a single-triangle component is all-heavy")
        verdicts.append(
            Verdict(
                "strict-coverage-bound",
                anchored <= 6 * p - outer_free,
                graded,
                f"{anchored} <= {6 * p} - {outer_free}",
            )
        )

        return ComponentReport(
            vertices=tuple(self.members),
            cactus_count=p,
            anchored_count=anchored,
            cactus_type_counts=tuple(p_types),
            chord_type_counts=tuple(a_types),
            outer_len=outer_len,
            outer_occupied=outer_occ,
            outer_free=outer_free,
            all_heavy=all_heavy,
            verified_optimal=verified,
            edges=edges,
            triangles=tris,
            skeleton=skel,
            super_faces=supers,
            eq_residual_half=eq_residual,
            verdicts=tuple(verdicts),
            notes=tuple(notes),
        )

    # -- stage 1: edges ------------------------------------------------

    def _edges(self) -> tuple[dict[tuple[int, int], EdgeClass], set[int]]:
        """Each edge of the component with its cross triangles, in the order
        of its dart u -> v (u < v), which is by u, then by u's rotation;
        and the darts u -> v of the crossless chords."""
        g, t = self.g, self.t
        tail, head, twin = g.tail, g.head, g.twin
        landing, cross_at, owner_at = t.landing, t.cross_at, t.owner_at
        table: dict[tuple[int, int], EdgeClass] = {}
        chords: set[int] = set()
        for d in self.inside:
            u, v = tail[d], head[d]
            if v < u:
                continue
            e = (u, v)
            crosses = ()
            hit = cross_at[d]
            if hit is not None:
                crosses = (CrossTriangle(hit[0], d, hit[1], landing[hit[1]]),)
            back = twin[d]
            hit = cross_at[back]
            if hit is not None:
                crosses += (CrossTriangle(hit[0], back, hit[1], landing[hit[1]]),)
            owner = owner_at[d]
            if owner is None:
                kind = _CHORD_KINDS[len(crosses)]
                if not crosses:
                    chords.add(d)
            elif len(crosses) > 1:
                raise IdentityViolationError(
                    f"cactus edge {e} reports {len(crosses)} cross "
                    "triangles; one side is its own triangle face"
                )
            else:
                kind = "cactus"
            table[e] = EdgeClass(e, kind, owner, len(crosses), crosses)
        return table, chords

    # -- stage 2: triangles ---------------------------------------------

    def _triangles(
        self, edges: dict[tuple[int, int], EdgeClass]
    ) -> tuple[dict[int, TriangleClass], list[str]]:
        """Classify the cactus triangles, with the heavy-shape findings.

        A chord spans the edge of a triangle that joins the two split parts
        holding its ends, read off the triangle's tour slices.
        """
        crossed = [
            (b, ec.cross_count)
            for b, ec in edges.items()
            if ec.kind in ("type-1", "type-2")
        ]
        if crossed:
            _, pos, _, slices = self.c.tour()
            crossed = [(b, n, pos[b[0]], pos[b[1]]) for b, n in crossed]
        triangles = self.g.triangles
        table: dict[int, TriangleClass] = {}
        notes: list[str] = []
        for tid in self.tri_ids:
            tri = triangles[tid]
            tri_edges = tri.edges
            spans: tuple[list[tuple[int, int]], ...] = ([], [], [])
            family = [0, 0, 0]  # crosses on each edge's spanning chords
            if crossed:
                cut = slices[tid]
                # The parts are numbered 0, 1, 2, so the edge joining parts
                # x != y is the one facing the corner in part 3 - x - y.  The
                # edges (a, b), (a, c), (b, c) face the corners c, b, a.
                facing = [0, 0, 0]
                for i, v in zip((2, 1, 0), tri.vertices):
                    facing[_split_part(cut, pos[v])] = i
                for b, n, pb, pc in crossed:
                    x, y = _split_part(cut, pb), _split_part(cut, pc)
                    if x != y:
                        i = facing[3 - x - y]
                        spans[i].append(b)
                        family[i] += n
            own = [edges[e].cross_count for e in tri_edges]
            loads = [n + f for n, f in zip(own, family)]
            load = dict(zip(tri_edges, loads))
            total = sum(loads)
            ranked = sorted(loads, reverse=True)
            heavy = total >= 4 or (ranked[0] >= 3 and ranked[1] == 0)
            base = free_v = None
            if heavy:
                base = min(e for e, n in load.items() if n == ranked[0])
                free_v = next(v for v in tri.vertices if v not in base)
            else:
                # A spanning-chord family of three or more crosses forces
                # heaviness under either clause, so light triangles can
                # only ever see at most two per edge.
                for e, n in zip(tri_edges, family):
                    if n > 2:
                        raise IdentityViolationError(
                            f"light triangle {tid} has {n} crosses on the "
                            f"spanning chords of edge {e}"
                        )
            spanning = dict(zip(tri_edges, map(tuple, spans)))
            table[tid] = tc = TriangleClass(
                tid, tri.vertices, 3 - own.count(0), heavy, total, load, spanning, base, free_v
            )
            if heavy:
                notes.extend(self._heavy_shape_notes(tc, edges))
        return table, notes

    @staticmethod
    def _heavy_shape_notes(
        tc: TriangleClass, edges: dict[tuple[int, int], EdgeClass]
    ) -> list[str]:
        """Shape constraints every heavy triangle meets at a 2-swap optimum."""
        notes = []
        if tc.cross_type >= 2:
            notes.append(
                f"heavy triangle {tc.triangle_id} supports crosses on "
                f"{tc.cross_type} of its own edges"
            )
            return notes
        if tc.load[tc.base_edge] < 3:
            notes.append(
                f"heavy triangle {tc.triangle_id} has base load "
                f"{tc.load[tc.base_edge]} < 3"
            )
        if tc.cross_type == 1:
            supported = next(e for e, n in tc.load.items() if edges[e].cross_count)
            if supported != tc.base_edge:
                notes.append(
                    f"heavy triangle {tc.triangle_id} supports its cross on "
                    f"{supported}, not on its base edge {tc.base_edge}"
                )
            for e in tc.load:
                if e != tc.base_edge and tc.spanning_chords[e]:
                    notes.append(
                        f"heavy triangle {tc.triangle_id} has spanning chords "
                        f"on non-base edge {e}"
                    )
        return notes

    # -- stage 3: skeleton ----------------------------------------------

    def _regions(
        self, chords: set[int], occupied_darts: set[int]
    ) -> tuple[Skeleton, int, int]:
        """The skeleton, and the length and occupied sides of the outer face
        of the component subgraph (the region holding the host outer face).

        Deleting an edge merges the host faces on its two sides: first the
        edges leaving the component, which gives the component subgraph's
        faces, then the crossless chords (one dart each in chords), which
        gives the skeleton's.
        """
        g, t = self.g, self.t
        twin, face_of = g.twin, g.face_of_dart
        regions = t.apart.copy()
        union = regions.union
        for root, darts in t.inside_of.items():
            if root != self.root:
                for d in darts:
                    if d < twin[d]:
                        union(face_of[d], face_of[twin[d]])
        inside = self.inside
        region = regions.labels()  # per host face
        outer = region[g.outer_face_id]
        boundary = [d for d in inside if region[face_of[d]] == outer]
        if not boundary:
            raise IdentityViolationError(
                "outer region of the component subgraph has no boundary dart"
            )

        if chords:
            for d in chords:
                union(face_of[d], face_of[twin[d]])
            region = regions.labels()
            gone = chords.union(twin[d] for d in chords)
            inside = [d for d in inside if d not in gone]
        darts_of: dict[int, list[int]] = {}
        for d in inside:
            darts_of.setdefault(region[face_of[d]], []).append(d)
        # Roots come up in order of their faces' smallest darts.
        fid_of = {root: fid for fid, root in enumerate(darts_of)}
        host_faces: list[list[int]] = [[] for _ in darts_of]
        for hf, root in enumerate(region):
            fid = fid_of.get(root)
            if fid is None:
                raise IdentityViolationError(
                    f"host face {hf} merged into a region with no skeleton dart"
                )
            host_faces[fid].append(hf)

        cactus_face_of: dict[int, int] = {}
        triangles = g.triangles
        for tid in self.tri_ids:
            hf = triangles[tid].face_id
            cactus_face_of[tid] = fid = fid_of[region[hf]]
            if host_faces[fid] != [hf]:
                raise IdentityViolationError(
                    f"face of cactus triangle {tid} merged with other regions"
                )
        own = set(cactus_face_of.values())
        super_ids = tuple(f for f in range(len(fid_of)) if f not in own)
        outer = fid_of[region[g.outer_face_id]]
        skel = Skeleton(
            face_darts=tuple(map(tuple, darts_of.values())),
            host_faces=tuple(map(frozenset, host_faces)),
            cactus_face_of=cactus_face_of,
            super_face_ids=super_ids,
            outer_super_face=outer if outer in super_ids else None,
        )
        return skel, len(boundary), sum(d in occupied_darts for d in boundary)

    # -- stage 4: super-faces ---------------------------------------------

    def _super_faces(
        self,
        edges: dict[tuple[int, int], EdgeClass],
        tris: dict[int, TriangleClass],
        skel: Skeleton,
        occupied_darts: set[int],
        labels_on: bool,
        graded: bool,
        outer_free: int,
    ) -> tuple[SuperFace, ...]:
        """Occupancy, capacity and gain accounting per skeleton super-face,
        labelled when labels_on and graded against its floor when graded."""
        tail, head, survivor_of = self.g.tail, self.g.head, self.t.survivor_of

        records = []
        for fid in skel.super_face_ids:
            occ = free = 0
            sides: list[tuple[tuple[int, int], bool]] = []
            tally: Counter[str] = Counter()
            pairs: list[tuple[int, int, int]] = []
            for d in skel.face_darts[fid]:
                u, v = tail[d], head[d]
                e = (u, v) if u < v else (v, u)
                hot = d in occupied_darts
                occ += hot
                free += not hot
                sides.append((e, hot))
                if labels_on:
                    tally[self._side_role(edges[e], tris, hot)] += 1
                    pair = self._friendly_pair(d, edges, tris)
                    if pair is not None:
                        pairs.append(pair)
            survive = sum(
                1 for hf in skel.host_faces[fid] if survivor_of[hf] == self.root
            )
            cap_half = 2 * free + occ
            gain_half = cap_half - 2 * survive
            is_outer = fid == skel.outer_super_face
            label = floor = gain_ok = None
            if labels_on:
                label = (
                    tally["base_crossed"] + tally["double"] + tally["single_occupied"],
                    tally["single_free"],
                    tally["base_plain"],
                )
                if label[0] != occ:
                    raise IdentityViolationError(
                        f"occupied sides of super-face {fid} disagree with "
                        f"their role decomposition ({occ} vs {label[0]})"
                    )
            if graded:
                if is_outer:
                    floor = 2 * outer_free - 2
                else:
                    floor = _gain_floor_half(label, bool(pairs))
                gain_ok = floor is not None and gain_half >= floor
            records.append(
                SuperFace(
                    face_id=fid,
                    is_outer=is_outer,
                    boundary_len=len(sides),
                    occupied=occ,
                    free=free,
                    survive=survive,
                    capacity_half=cap_half,
                    gain_half=gain_half,
                    sides=tuple(sides),
                    label=label,
                    friendly_pairs=tuple(sorted(set(pairs))),
                    floor_half=floor,
                    gain_ok=gain_ok,
                )
            )
        return tuple(records)

    @staticmethod
    def _side_role(
        ec: EdgeClass, tris: dict[int, TriangleClass], hot: bool
    ) -> str:
        """The role of a boundary side on ec, tallied for the label.

        Every boundary side has exactly one role: a chord side (single- or
        double-crossed chords; type-0 chords are gone from the skeleton) or
        the non-triangle side of a cactus edge, split by the owning
        triangle's base/free designation and cross type.
        """
        if ec.kind == "type-1":
            return "single_occupied" if hot else "single_free"
        if ec.kind == "type-2":
            return "double"
        if ec.kind != "cactus":  # pragma: no cover - type-0 chords are gone
            raise IdentityViolationError("crossless chord on a skeleton boundary")
        tc = tris[ec.owner]
        if ec.edge == tc.base_edge:
            return "base_crossed" if tc.cross_type else "base_plain"
        return "free_crossed" if tc.cross_type else "free_plain"

    def _friendly_pair(
        self,
        d1: int,
        edges: dict[tuple[int, int], EdgeClass],
        tris: dict[int, TriangleClass],
    ) -> tuple[int, int, int] | None:
        """Detect the friendly corner w1 -> v -> w2 between two triangles.

        d1 = w1 -> v and its host face successor v -> w2 must ride free
        edges of distinct cactus triangles, entered from / leaving to their
        free vertices, and the host corner at v must be an empty triangle:
        being face successors leaves no host darts between the two edges,
        and the corner face must be closed off by a w1-w2 edge.
        """
        g = self.g
        w1, v = g.tail[d1], g.head[d1]
        w2 = g.head[g.face_next[d1]]
        if self.t.label[w2] != self.root:
            return None
        e1 = (w1, v) if w1 < v else (v, w1)
        e2 = (v, w2) if v < w2 else (w2, v)
        ec1, ec2 = edges[e1], edges[e2]
        if ec1.kind != "cactus" or ec2.kind != "cactus" or ec1.owner == ec2.owner:
            return None
        t1, t2 = tris[ec1.owner], tris[ec2.owner]
        if w1 != t1.free_vertex or w2 != t2.free_vertex:
            return None
        if not g.faces[g.face_of_dart[d1]].is_triangle:
            return None
        return (t1.triangle_id, t2.triangle_id, v)

    @staticmethod
    def _floor_detail(r: SuperFace) -> str:
        if r.floor_half is None:
            return (
                f"super-face {r.face_id} has no occupied side, which cannot "
                "happen when every triangle is heavy"
            )
        return (
            f"super-face {r.face_id} (label {r.label}, "
            f"{'outer' if r.is_outer else 'inner'}) has gain {r.gain_half}/2 "
            f"below its floor {r.floor_half}/2"
        )


def _split_part(cut: tuple[tuple[int, int], tuple[int, int]], p: int) -> int:
    """The part holding tour position p once a cactus triangle's edges are
    deleted, for a position of the triangle's component: 1 or 2 inside the
    first or second of its child-corner slices (cut, its EulerTour.slices
    entry), 0 for the rest of the component, the part of its parent corner.
    """
    (start, mid), (_, end) = cut
    if p < start or p >= end:
        return 0
    return 1 if p < mid else 2


def _gain_floor_half(label: tuple[int, int, int], friendly: bool) -> int | None:
    """Floor on 2*gain for an inner super-face, by boundary shape.

    Shapes with some crossless base edge on the boundary, or with a
    friendly corner, admit a cheaper floor because part of the capacity
    can be recovered by a swap through that side.  An inner face with no
    occupied side at all has no floor here: it cannot occur when every
    triangle is heavy, and the caller reports it as a violation.
    """
    occupied, single_free, base_plain = label
    relaxed = base_plain >= 1 or friendly
    if occupied >= 3:
        return 3
    if occupied == 2:
        if single_free >= 2:
            return 4
        if single_free == 1:
            return 5
        return 4 if relaxed else 6
    if occupied == 1:
        if single_free >= 1:
            return 4 if relaxed else 8
        return 5 if relaxed else 9
    return None


# ----------------------------------------------------------------------
# public entry point


def analyze_cactus(
    g: PlaneGraph, cactus: TriangularCactus, verified: bool | None = None
) -> CactusReport:
    """Analyze every non-singleton component and roll up the verdicts.

    Also checks the global coverage ledger: when the cactus is maximal
    (no triangle spans three components), every triangular face has two
    corners in some component, so the per-component anchored counts sum
    to the number of triangular faces and 6 * (number of triangles) is an
    upper bound certificate for all of them.

    This is where the analyzer decides 2-swap optimality, once for the
    whole cactus.  With verified=None the cactus is verified first (at
    the ceiling without a scan, see ``verify_local_optimality``), and
    one that admits an improving move of size at most 2 raises
    NotLocallyOptimalError with that move as its witness.  verified=True
    or False is taken on trust.  Either way every component report gets
    the settled bool.  A cactus of another graph than g raises
    ValueError.
    """
    check_host(g, cactus)
    if verified is None:
        verified, witness = verify_local_optimality(g, cactus, 2)
        if not verified:
            raise NotLocallyOptimalError(
                f"removing triangles {list(witness.remove)} and adding "
                f"{list(witness.add)} gives a larger cactus",
                witness=witness,
            )

    tables = _HostTables(g, cactus)
    reports = []
    singletons = 0
    for root, comp in tables.members.items():
        if len(comp) == 1:
            singletons += 1
            continue
        reports.append(_ComponentAnalysis(tables, root).report(verified))

    maximal = tables.maximal
    anchored_total = sum(r.anchored_count for r in reports)
    f3 = g.f3_all
    verdicts = []
    if maximal:
        if anchored_total != f3:
            raise IdentityViolationError(
                f"maximal cactus anchors {anchored_total} of {f3} triangular faces"
            )
        verdicts.append(
            Verdict("anchored-coverage", True, True, f"{anchored_total} = {f3}")
        )
    else:
        verdicts.append(
            Verdict(
                "anchored-coverage",
                False,
                False,
                f"cactus is not maximal; {anchored_total} of {f3} faces anchored",
            )
        )
    verdicts.append(
        Verdict(
            "global-coverage-bound",
            6 * len(cactus) >= anchored_total,
            True,
            f"6 * {len(cactus)} >= {anchored_total}",
        )
    )

    return CactusReport(
        components=tuple(reports),
        singleton_count=singletons,
        anchored_total=anchored_total,
        triangular_faces=f3,
        maximal=maximal,
        verified_optimal=verified,
        verdicts=tuple(verdicts),
    )
