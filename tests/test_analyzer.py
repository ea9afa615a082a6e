"""Structural reports: edge/triangle classes, super-face grading, verdicts.

The two handmade all-heavy optima (heavy_pair, heavy_path) pin down the
whole grading path, since random instances almost never produce heavy
triangles.  Their numbers were frozen from the first verified run and
cross-checked by hand against the counting rules.
"""

import hashlib
import json
import random

import pytest

from cactus_forge import (
    GeneratorSpec,
    NotLocallyOptimalError,
    SwapMove,
    acceptance_corpus,
    analyze_cactus,
    build_instance,
    greedy_initial,
    local_search,
)
from cactus_forge.analyzer import Verdict, _gain_floor_half
from cactus_forge.pipeline import report_to_dict
from reference_split import spanning_chords
from reference_subgraph import reembed


def report_of(case, verified=True):
    """The report of the component holding the case's first triangle."""
    v = case.triples[0][0]
    reports = analyze_cactus(case.g, case.cactus, verified=verified).components
    return next(r for r in reports if v in r.vertices)


class TestEdgeClasses:
    def test_heavy_pair_edges(self, heavy_pair):
        edges = report_of(heavy_pair).edges
        assert edges[(0, 1)].kind == "cactus"
        assert edges[(0, 1)].owner is not None
        chord = edges[(0, 2)]
        assert chord.kind == "type-2"
        assert chord.owner is None
        assert chord.cross_count == 2
        # each cross triangle records its far corner and where it lands
        assert {c.third_vertex for c in chord.crosses} == {5, 6}

    def test_heavy_path_chords_all_double(self, heavy_path):
        edges = report_of(heavy_path).edges
        chords = {e: c for e, c in edges.items() if c.kind != "cactus"}
        assert set(chords) == {(0, 2), (0, 3), (1, 3)}
        assert all(c.kind == "type-2" for c in chords.values())


class TestTriangleClasses:
    def test_heavy_pair_triangles(self, heavy_pair):
        tris = report_of(heavy_pair).triangles
        assert set(tris) == {0, 4}
        a, b = tris[0], tris[4]
        assert a.vertices == (0, 1, 3) and b.vertices == (1, 2, 4)
        assert (a.cross_type, b.cross_type) == (1, 1)
        assert a.heavy and b.heavy
        assert a.load == {(0, 1): 3, (0, 3): 0, (1, 3): 0}
        assert a.base_edge == (0, 1) and a.free_vertex == 3
        assert b.base_edge == (1, 2) and b.free_vertex == 4

    def test_heavy_path_triangles(self, heavy_path):
        tris = report_of(heavy_path).triangles
        assert set(tris) == {0, 5, 8}
        assert all(t.cross_type == 0 and t.heavy for t in tris.values())
        assert [tris[i].total_load for i in (0, 5, 8)] == [4, 6, 4]
        assert tris[5].load == {(1, 2): 6, (1, 5): 0, (2, 5): 0}

    def test_spread_load_on_unverified_cactus_raises(self, heavy_shape_bad):
        # verified=False skips the verifier, so the failed shape check is
        # all the analyzer can report: no witness move
        g, c = heavy_shape_bad.g, heavy_shape_bad.cactus
        with pytest.raises(NotLocallyOptimalError) as exc:
            analyze_cactus(g, c, verified=False)
        assert str(exc.value) == "heavy triangle 1 has base load 2 < 3"
        assert exc.value.witness is None


class TestSuperFaces:
    def test_heavy_pair_occupancy(self, heavy_pair):
        # an unverified cactus still gets occupancy, capacity and labels;
        # the floors are graded only on a verified optimum
        faces = report_of(heavy_pair, verified=False).super_faces
        assert len(faces) == 2
        inner = next(f for f in faces if not f.is_outer)
        outer = next(f for f in faces if f.is_outer)
        assert (inner.occupied, inner.free, inner.survive) == (3, 0, 0)
        assert inner.capacity_half == inner.gain_half == 3
        assert inner.label == (3, 0, 0)
        assert (outer.occupied, outer.free) == (1, 4)
        assert outer.capacity_half == outer.gain_half == 9
        assert outer.label == (1, 0, 0)
        assert all(f.floor_half is None and f.gain_ok is None for f in faces)
        assert not any(f.friendly for f in faces)

    def test_heavy_pair_graded_floors(self, heavy_pair):
        r = report_of(heavy_pair)
        inner = next(f for f in r.super_faces if not f.is_outer)
        outer = next(f for f in r.super_faces if f.is_outer)
        assert inner.floor_half == 3 and outer.floor_half == 6
        assert all(f.gain_ok for f in r.super_faces)

    def test_heavy_path_floors_are_tight(self, heavy_path):
        faces = report_of(heavy_path).super_faces
        by_label = {f.label: f for f in faces}
        assert set(by_label) == {(1, 0, 0), (2, 0, 0), (2, 0, 1), (1, 0, 2)}
        # three of the four cases sit exactly on their lower bound
        assert by_label[(1, 0, 0)].gain_half == by_label[(1, 0, 0)].floor_half == 9
        assert by_label[(2, 0, 1)].gain_half == by_label[(2, 0, 1)].floor_half == 4
        assert by_label[(1, 0, 2)].gain_half == by_label[(1, 0, 2)].floor_half == 5
        outer = by_label[(2, 0, 0)]
        assert outer.is_outer
        assert (outer.gain_half, outer.floor_half) == (6, 2)


class TestComponentReport:
    def test_heavy_pair_report(self, heavy_pair):
        r = report_of(heavy_pair)
        assert r.vertices == (0, 1, 2, 3, 4)
        assert (r.cactus_count, r.anchored_count) == (2, 6)
        assert r.cactus_type_counts == (0, 2, 0, 0)
        assert r.chord_type_counts == (0, 0, 1)
        assert (r.outer_len, r.outer_occupied, r.outer_free) == (5, 1, 4)
        assert r.all_heavy
        assert r.eq_residual_half == 0
        assert r.ok
        by_name = {v.name: v for v in r.verdicts}
        assert by_name["anchored-recount"].detail == "6 = 2 + 2 + 0 + 2*1 + 0"
        assert by_name["super-face-count"].detail == "2 = 0 + 1 + 1"
        assert by_name["coverage-bound"].detail == "6 <= 12"
        assert by_name["capacity-sum"].detail == "12 = 12"
        assert by_name["gain-accounting"].detail == "residual 0"
        assert by_name["skeleton-size"].detail == "2 super-faces with 2 triangles"
        assert by_name["strict-coverage-bound"].required
        assert by_name["strict-coverage-bound"].detail == "6 <= 12 - 4"
        assert not by_name["free-sides-paired"].required
        assert all(v.ok for v in r.verdicts)

    def test_heavy_path_report(self, heavy_path):
        r = report_of(heavy_path)
        assert (r.cactus_count, r.anchored_count) == (3, 9)
        assert r.cactus_type_counts == (3, 0, 0, 0)
        assert r.chord_type_counts == (0, 0, 3)
        assert (r.outer_len, r.outer_occupied, r.outer_free) == (4, 2, 2)
        assert r.all_heavy and r.ok and r.eq_residual_half == 0
        by_name = {v.name: v for v in r.verdicts}
        assert by_name["capacity-sum"].detail == "24 = 24"
        # |super-faces| = 4 = 2p - 2: the ceiling is attained
        assert by_name["skeleton-size"].detail == "4 super-faces with 3 triangles"
        assert by_name["strict-coverage-bound"].detail == "9 <= 18 - 2"

    def test_skeleton_maps_cactus_faces(self, heavy_path):
        r = report_of(heavy_path)
        sk = r.skeleton
        assert set(sk.cactus_face_of) == {0, 5, 8}
        assert len(sk.super_face_ids) == 4
        assert sk.outer_super_face in sk.super_face_ids
        # cactus faces and super-faces together tile the skeleton
        assert len(sk.face_darts) == len(sk.super_face_ids) + 3

    def test_light_components_skip_grading(self, heavy_pair):
        octa = build_instance(GeneratorSpec("platonic", name="octahedron"))
        c, _ = local_search(octa)
        rep = analyze_cactus(octa, c)
        (r,) = rep.components
        assert r.cactus_count == 2
        assert not r.all_heavy
        assert r.eq_residual_half is None
        names = [v.name for v in r.verdicts]
        assert names == [
            "anchored-recount",
            "super-face-count",
            "coverage-bound",
            "double-cross-landings",
            "strict-coverage-bound",
        ]
        strict = next(v for v in r.verdicts if v.name == "strict-coverage-bound")
        assert strict.ok and not strict.required


class TestWholeCactus:
    def test_heavy_pair_rollup(self, heavy_pair):
        rep = analyze_cactus(heavy_pair.g, heavy_pair.cactus)
        assert rep.ok and rep.maximal and rep.verified_optimal
        assert (rep.anchored_total, rep.triangular_faces) == (6, 6)
        assert rep.singleton_count == 2
        assert [(v.name, v.ok, v.required) for v in rep.verdicts] == [
            ("anchored-coverage", True, True),
            ("global-coverage-bound", True, True),
        ]

    def test_heavy_path_rollup(self, heavy_path):
        rep = analyze_cactus(heavy_path.g, heavy_path.cactus)
        assert rep.ok and rep.maximal
        assert (rep.anchored_total, rep.triangular_faces) == (9, 9)
        assert rep.singleton_count == 6

    def test_non_optimum_raises_with_witness(self, heavy_shape_bad):
        with pytest.raises(NotLocallyOptimalError) as exc:
            analyze_cactus(heavy_shape_bad.g, heavy_shape_bad.cactus)
        assert exc.value.witness == SwapMove(remove=(1,), add=(2, 4))

    def test_claimed_verified_raises_without_witness(self, heavy_shape_bad):
        # caller says "already verified, don't re-run": the structural
        # contradiction still surfaces but no witness was ever computed
        with pytest.raises(NotLocallyOptimalError) as exc:
            analyze_cactus(
                heavy_shape_bad.g, heavy_shape_bad.cactus, verified=False
            )
        assert exc.value.witness is None

    def test_diagnostics_on_supposedly_verified_input(self, heavy_shape_bad):
        # verified=True turns the raise into a failed required verdict
        rep = analyze_cactus(heavy_shape_bad.g, heavy_shape_bad.cactus, verified=True)
        assert not rep.ok
        (r,) = rep.components
        assert r.notes == ("heavy triangle 1 has base load 2 < 3",)
        by_name = {v.name: v for v in r.verdicts}
        assert not by_name["heavy-shape"].ok
        assert by_name["heavy-shape"].required
        # grading is skipped when the shape premises already failed
        assert all(f.label is None and f.floor_half is None for f in r.super_faces)
        assert not by_name["strict-coverage-bound"].required
        assert r.triangles[1].load == {(0, 3): 2, (0, 4): 2, (3, 4): 0}

    def test_random_optimum_grades_clean(self):
        g = build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=5))
        c, _ = local_search(g)
        rep = analyze_cactus(g, c)
        assert rep.ok and rep.maximal
        (r,) = rep.components
        assert (r.cactus_count, r.anchored_count) == (7, 28)
        assert not r.all_heavy
        strict = next(v for v in r.verdicts if v.name == "strict-coverage-bound")
        assert strict.detail == "28 <= 42 - 3"


# Floor on 2*gain for an inner super-face, by (occupied sides, free sides
# of single-crossed chords): the floor with no relaxation, then the floor
# once a crossless base side or a friendly corner relaxes it.  An inner
# face with no occupied side has no floor.
GAIN_FLOORS_HALF = {
    (0, 0): (None, None), (0, 1): (None, None), (0, 2): (None, None),
    (1, 0): (9, 5), (1, 1): (8, 4), (1, 2): (8, 4), (1, 3): (8, 4),
    (2, 0): (6, 4), (2, 1): (5, 5), (2, 2): (4, 4), (2, 3): (4, 4),
    (3, 0): (3, 3), (3, 1): (3, 3), (3, 2): (3, 3), (4, 2): (3, 3),
}


@pytest.mark.parametrize(
    "base_plain, friendly, relaxed",
    [(0, False, False), (1, False, True), (2, False, True), (0, True, True),
     (1, True, True)],
)
def test_gain_floor_table(base_plain, friendly, relaxed):
    # The heavy fixtures never reach the friendly branch; this pins it.
    for (occupied, single_free), floors in GAIN_FLOORS_HALF.items():
        label = (occupied, single_free, base_plain)
        assert _gain_floor_half(label, friendly) == floors[relaxed], label


def _component_edges(g, comp):
    inside = set(comp)
    return {(u, v) for u, v in g.edge_set if u in inside and v in inside}


def _outer_counts_from_the_subgraph(g, comp, report):
    """Outer face of the full component subgraph, from its re-embedding."""
    _, regions, region_of = reembed(g, _component_edges(g, comp))
    occupied = {cr.side_dart for ec in report.edges.values() for cr in ec.crosses}
    darts = regions[region_of[g.outer_face_id]].darts
    occ = sum(d in occupied for d in darts)
    return len(darts), occ, len(darts) - occ


def _outer_count_cases():
    """Every seventh acceptance row's 2-swap optimum, then the same cactus
    minus one triangle, each with the verified flag to analyze it under."""
    specs = acceptance_corpus()[::7]
    for spec in specs:
        g = build_instance(spec)
        c, _ = local_search(g)
        yield spec.label(), g, c, None
        if len(c):
            # Components of a cactus minus a triangle can nest in one
            # another's faces.
            short = c.copy()
            short.remove_triangle(short.triangle_ids[len(short) // 2])
            yield spec.label() + " minus one", g, short, True


@pytest.fixture
def heavy_cases(heavy_pair, heavy_path, heavy_shape_bad):
    # heavy_shape_bad is not 2-swap optimal; only verified=True reports it
    return [
        ("heavy_pair", heavy_pair.g, heavy_pair.cactus, True),
        ("heavy_path", heavy_path.g, heavy_path.cactus, True),
        ("heavy_shape_bad", heavy_shape_bad.g, heavy_shape_bad.cactus, True),
    ]


def test_outer_counts_match_the_component_subgraph(heavy_cases):
    checked = 0
    for name, g, c, _ in heavy_cases + list(_outer_count_cases()):
        for r in analyze_cactus(g, c, verified=True).components:
            comp = r.vertices
            got = (r.outer_len, r.outer_occupied, r.outer_free)
            assert got == _outer_counts_from_the_subgraph(g, comp, r), (name, comp)
            checked += 1
    assert checked > 60


def test_skeleton_matches_the_component_subgraph(heavy_cases):
    checked = 0
    for name, g, c, _ in heavy_cases + list(_outer_count_cases()):
        for r in analyze_cactus(g, c, verified=True).components:
            comp = r.vertices
            sk = r.skeleton
            type0 = {e for e, ec in r.edges.items() if ec.kind == "type-0"}
            _, regions, region_of = reembed(g, _component_edges(g, comp) - type0)
            assert len(sk.face_darts) == len(regions), (name, comp)
            for i, region in enumerate(regions):
                assert sk.face_darts[i] == region.darts, (name, comp, i)
                assert sk.host_faces[i] == region.host_faces
            own = {t: region_of[g.triangles[t].face_id] for t in r.triangles}
            assert sk.cactus_face_of == own, (name, comp)
            supers = tuple(i for i in range(len(regions)) if i not in own.values())
            assert sk.super_face_ids == supers, (name, comp)
            outer = region_of[g.outer_face_id]
            expected_outer = outer if outer in supers else None
            assert sk.outer_super_face == expected_outer, (name, comp)
            checked += 1
    assert checked > 60


# sha256 of the sort_keys JSON reports of _outer_count_cases() followed by
# the heavy fixtures.  Any change to a report field on these 67 cases
# changes it; re-record it only for an intended change to the reports.
REPORTS_SHA256 = "b8e7277ef34b76f8a2b18f8c471bdd9a08ed8b5da939b5da1c250cdd1f3118c4"


def test_reports_match_the_frozen_digest(heavy_cases):
    digest = hashlib.sha256()
    cases = list(_outer_count_cases()) + heavy_cases
    for _, g, c, verified in cases:
        report = analyze_cactus(g, c, verified=verified)
        digest.update(json.dumps(report_to_dict(report), sort_keys=True).encode())
    assert len(cases) == 67
    assert digest.hexdigest() == REPORTS_SHA256


def _edge_deleted_optima():
    """2-swap optima on triangulations with a fifth of their edges dropped:
    cacti with several components, crossed chords and spanning chords."""
    for seed in range(40):
        host = build_instance(
            GeneratorSpec("random_maximal_planar", n=10 + seed % 21, seed=seed)
        )
        rng = random.Random(seed)
        kept = {e for e in sorted(host.edge_set) if rng.random() >= 0.2}
        g, _, _ = reembed(host, kept)
        c, _ = local_search(g)
        yield f"edge-deleted s{seed}", g, c, None


def test_maximal_is_read_off_the_face_pass():
    # Greedy cacti, whole and with every other triangle removed, on whole
    # and edge-deleted triangulations: maximal means no candidate has its
    # corners in three components of the cactus.
    seen = []
    for n in (8, 16, 24, 40):
        for seed in range(10):
            host = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
            for p in (0, 0.15, 0.3):
                rng = random.Random(seed)
                kept = {e for e in sorted(host.edge_set) if rng.random() >= p}
                g, _, _ = reembed(host, kept)
                c = greedy_initial(g, seed)
                for halve in (False, True):
                    for tid in c.triangle_ids[::2] if halve else ():
                        c.remove_triangle(tid)
                    label = c.labels()
                    extends = any(
                        len({label[v] for v in t.vertices}) == 3 for t in g.triangles
                    )
                    # verified=True keeps shape faults as verdicts, not raised.
                    report = analyze_cactus(g, c, verified=True)
                    assert report.maximal is not extends, (n, seed, p, halve)
                    seen.append(report.maximal)
    assert seen.count(True) == seen.count(False) == 120


def _canonical(obj):
    """Every field of a report as JSON: records by class and field,
    mappings in iteration order, sets sorted, tuples told from lists."""
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return [
            type(obj).__name__,
            [[f, _canonical(getattr(obj, f))] for f in obj._fields],
        ]
    if isinstance(obj, dict):
        return ["dict", [[_canonical(k), _canonical(v)] for k, v in obj.items()]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(_canonical(x) for x in obj)]
    if isinstance(obj, tuple):
        return ["tuple", [_canonical(x) for x in obj]]
    if isinstance(obj, list):
        return ["list", [_canonical(x) for x in obj]]
    assert obj is None or type(obj) in (bool, int, str), type(obj)
    return obj


def test_spanning_chords_match_the_split_parts(heavy_cases):
    # The analyzer tests chord ends by tour position; the reference builds
    # the three split parts as vertex sets.
    spans = 0
    cases = heavy_cases + list(_outer_count_cases()) + list(_edge_deleted_optima())
    for name, g, c, _ in cases:
        for r in analyze_cactus(g, c, verified=True).components:
            crossed = [e for e, ec in r.edges.items() if ec.kind in ("type-1", "type-2")]
            for tid, tc in r.triangles.items():
                assert tc.spanning_chords == spanning_chords(c, tid, crossed), (name, tid)
                spans += sum(map(bool, tc.spanning_chords.values()))
    assert spans > 100


# sha256 of _canonical(CactusReport) over the REPORTS_SHA256 cases, then
# _edge_deleted_optima().  Unlike REPORTS_SHA256 it covers the edges, the
# crosses and their landings, the spanning chords, the skeleton and the
# super-face sides, and the order of every mapping.
FULL_REPORTS_SHA256 = "59ddd23b14b371824ff08b5901471b46b42824b550e78d26097634b17a20eb94"


def test_full_reports_match_the_frozen_digest(heavy_cases):
    digest = hashlib.sha256()
    cases = list(_outer_count_cases()) + heavy_cases + list(_edge_deleted_optima())
    components = crossed = 0
    for _, g, c, verified in cases:
        report = analyze_cactus(g, c, verified=verified)
        digest.update(json.dumps(_canonical(report)).encode())
        components += len(report.components)
        crossed += sum(
            1 for r in report.components if r.chord_type_counts[1] + r.chord_type_counts[2]
        )
    assert len(cases) == 107
    assert (components, crossed) == (156, 72)
    assert digest.hexdigest() == FULL_REPORTS_SHA256


def test_records_stay_read_only(heavy_pair):
    # The records are NamedTuples: assigning to a field raises, as it did
    # when they were frozen dataclasses, and they read as tuples.
    from cactus_forge import SearchConfig, exact_beta_faces

    g, c = heavy_pair.g, heavy_pair.cactus
    report = analyze_cactus(g, c)
    comp = report.components[0]
    edge = next(ec for ec in comp.edges.values() if ec.crosses)
    _, trace = local_search(g, SearchConfig(t=2, seed=3))
    records = [
        (report, "maximal"), (report.verdicts[0], "ok"), (comp, "anchored_count"),
        (edge, "kind"), (edge.crosses[0], "landing"), (comp.triangles[c.triangle_ids[0]], "heavy"),
        (comp.skeleton, "outer_super_face"), (comp.super_faces[0], "gain_half"),
        (trace, "moves_examined"), (SwapMove((0,), (1, 2)), "add"),
        (SearchConfig(), "t"), (GeneratorSpec("wheel", n=5), "n"),
        (exact_beta_faces(g), "optimum"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == record[record._fields.index(field)]
    assert SwapMove((0,), (1, 2)) == ((0,), (1, 2))
    assert Verdict("x", True, True)._replace(ok=False) == ("x", False, True, "")
