"""Rotation-system plane graphs: faces, triangles, subgraphs, validation."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cactus_forge import (
    GeneratorSpec,
    InstanceFormatError,
    PlaneGraph,
    load_instance,
    acceptance_corpus,
    build_instance,
    relabeled,
)
from cactus_forge.errors import (
    AsymmetricAdjacencyError,
    CactusForgeError,
    BadOuterDesignatorError,
    LoopEdgeError,
    NonPlanarEmbeddingError,
    ParallelEdgeError,
)
from cactus_forge.plane_graph import dump_instance, instance_to_dict, parse_instance
from reference_plane_graph import host_tables, tables_of
from reference_subgraph import reembed
from reference_triangles import collect_triangles


def euler_count(g):
    # v - e + f = 1 + (number of connected components) on the sphere
    return g.n - g.edge_count + len(g.faces)


class TestConstruction:
    def test_triangle_basics(self, triangle):
        assert triangle.n == 3
        assert triangle.edge_count == 3
        assert triangle.edge_set == {(0, 1), (0, 2), (1, 2)}
        assert len(triangle.rotations[0]) == 2
        assert triangle.rotations[1] == (2, 0)
        assert triangle.has_edge(2, 0) and triangle.has_edge(0, 2)
        assert not triangle.has_edge(0, 0)

    def test_darts_are_numbered_by_tail_then_rotation(self, necklace, bowtie):
        # The analyzer lists a component's edges in dart order.
        for g in (necklace, bowtie):
            darts = [(g.tail[d], g.head[d]) for d in range(g.dart_count)]
            assert darts == [(u, v) for u in range(g.n) for v in g.rotations[u]]

    def test_triangle_faces(self, triangle):
        assert len(triangle.faces) == 2
        assert triangle.f3_internal == 1
        assert triangle.f3_all == 2
        assert triangle.faces[triangle.outer_face_id].vertices == (0, 1, 2)

    def test_k4_faces_and_triangles(self, k4):
        assert len(k4.faces) == 4
        assert k4.f3_internal == 3
        assert k4.f3_all == 4
        tris = [t.vertices for t in k4.triangles]
        assert tris == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for t in k4.triangles:
            assert t.id == k4.triangles.index(t)
            assert k4.faces[t.face_id].vertices is not None

    def test_euler_formula(self, triangle, k4, double_ear, prism9, bowtie):
        for g in (triangle, k4, double_ear, prism9):
            assert euler_count(g) == 2
        # bowtie carries an isolated vertex, hence two components
        assert bowtie.comp_count == 2
        assert euler_count(bowtie) == 3

    def test_face_lengths_sum_to_dart_count(self, k4, prism9, necklace):
        for g in (k4, prism9, necklace):
            assert sum(len(f.vertices) for f in g.faces) == 2 * g.edge_count

    def test_prism_triangles(self, prism9):
        assert [t.vertices for t in prism9.triangles] == [(0, 1, 2), (3, 4, 5)]
        assert prism9.f3_internal == 1  # the outer face is the other triangle
        assert prism9.f3_all == 2

    def test_dart_id_unknown_edge(self, triangle):
        with pytest.raises(KeyError):
            triangle.dart_id(0, 0)

    def test_edgeless_graph(self):
        g = PlaneGraph(2, [[], []], None)
        assert g.edge_count == 0
        assert len(g.faces) == 1
        assert g.comp_count == 2


class TestValidation:
    def test_loop_edge(self):
        with pytest.raises(LoopEdgeError):
            PlaneGraph(2, [[0, 1], [0]], (0, 1))

    def test_parallel_edge(self):
        with pytest.raises(ParallelEdgeError):
            PlaneGraph(2, [[1, 1], [0, 0]], (0, 1))

    def test_asymmetric_adjacency(self):
        with pytest.raises(AsymmetricAdjacencyError):
            PlaneGraph(3, [[1, 2], [2], [0, 1]], (0, 1))

    def test_nonplanar_rotation_rejected(self):
        # K5 admits no embedding in the plane, whatever the rotations say.
        rot = [[v for v in range(5) if v != u] for u in range(5)]
        with pytest.raises(NonPlanarEmbeddingError):
            PlaneGraph(5, rot, (0, 1))

    def test_bool_and_non_int_entries(self):
        # bool is an int subclass, and True == 1 would make the edge (0, True).
        for rot in ([[True], [0]], [[1], [False]], [[1.0], [0]]):
            with pytest.raises(InstanceFormatError, match="non-integer entry"):
                PlaneGraph(2, rot, (0, 1))
        for outer in ((0, True), (False, 1), [0, 1.0]):
            with pytest.raises(InstanceFormatError, match='"outer" must be'):
                PlaneGraph(2, [[1], [0]], outer)

    def test_vertex_count_must_be_a_nonnegative_int(self):
        # A bool n would be searched as n = 1, and a float one fails later
        # with a bare TypeError.
        for n in (True, 1.0):
            with pytest.raises(InstanceFormatError, match="vertex count must be an int"):
                PlaneGraph(n, [[]], None)
        with pytest.raises(InstanceFormatError, match="must be nonnegative, got -1"):
            PlaneGraph(-1, [], None)

    def test_bad_outer_designator(self):
        with pytest.raises(BadOuterDesignatorError):
            PlaneGraph(3, [[1, 2], [2, 0], [0, 1]], (0, 7))
        with pytest.raises(BadOuterDesignatorError):
            PlaneGraph(2, [[1], [0]], None)  # has edges, must name a dart


class TestSubgraphs:
    # Subgraphs are re-embedded by the tests' reference only; the package
    # reads their faces off the host drawing.
    def test_induced_triangle_of_k4(self, k4):
        sub, regions, region_of = reembed(k4, {(0, 1), (0, 2), (1, 2)})
        assert sub.edge_set == {(0, 1), (0, 2), (1, 2)}
        assert sub.rotations[3] == ()
        # dropping the hub merges its three incident faces into one
        assert sorted(len(r.host_faces) for r in regions) == [1, 3]
        # the regions partition the host faces
        assert sorted(f for r in regions for f in r.host_faces) == [0, 1, 2, 3]
        outer = regions[region_of[k4.outer_face_id]]
        assert outer.host_faces == {k4.outer_face_id}
        boundary = sub.faces[sub.outer_face_id].boundary
        assert outer.darts == tuple(
            sorted(k4.dart_id(sub.tail[d], sub.head[d]) for d in boundary)
        )

    def test_drop_edge_merges_faces(self, k4):
        sub, regions, _ = reembed(k4, k4.edge_set - {(0, 3)})
        assert sub.edge_count == 5
        assert len(sub.faces) == len(regions) == 3
        assert max(len(r.host_faces) for r in regions) == 2


class TestTriangleTable:
    # The vertex-keyed table against the edge-keyed reference.
    def test_acceptance_hosts(self):
        for spec in acceptance_corpus():
            g = build_instance(spec)
            assert g.triangles == collect_triangles(g), spec.label()

    def test_edge_deleted_hosts(self):
        # 4 sizes x 30 seeds x 3 drop rates: 360 hosts.
        for n in (8, 16, 32, 64):
            for seed in range(30):
                host = build_instance(
                    GeneratorSpec("random_maximal_planar", n=n, seed=seed)
                )
                for p in (0.15, 0.3, 0.5):
                    rng = random.Random(seed)
                    kept = {e for e in sorted(host.edge_set) if rng.random() >= p}
                    g = reembed(host, kept)[0]
                    assert g.triangles == collect_triangles(g), (n, seed, p)

    def test_handmade_hosts(
        self, k4, two_k4, double_ear, triangle_with_tail, bowtie, necklace, prism9
    ):
        for g in (k4, two_k4, double_ear, triangle_with_tail, bowtie, necklace, prism9):
            assert g.triangles == collect_triangles(g)

    def test_lone_three_cycle_is_one_candidate(self, triangle):
        # Both faces of a lone 3-cycle are triangles with the same edges;
        # they collapse into one candidate named by the bounded face,
        # whichever of the two ids the outer face holds.
        flipped = PlaneGraph(3, triangle.rotations, (0, 1))
        for g, bounded in ((triangle, 0), (flipped, 1)):
            (t,) = g.triangles
            assert g.triangles == collect_triangles(g)
            assert t.vertices == (0, 1, 2)
            assert t.edges == ((0, 1), (0, 2), (1, 2))
            assert t.face_ids == (0, 1)
            assert t.face_id == bounded != g.outer_face_id


def _outcome(tables):
    """What tables() returns, or its error's class and text."""
    try:
        return tables()
    except CactusForgeError as exc:
        return type(exc), str(exc)


class TestHostTables:
    # The flat build against the dart-by-dart reference, table by table.
    def _check(self, g):
        data = instance_to_dict(g)
        expected = host_tables(data)
        assert tables_of(g) == expected
        assert tables_of(parse_instance(data)) == expected

    def test_acceptance_hosts(self):
        for spec in acceptance_corpus():
            self._check(build_instance(spec))

    def test_edge_deleted_hosts(self):
        joined = 0
        for n in (8, 16, 32, 64):
            for seed in range(10):
                host = build_instance(
                    GeneratorSpec("random_maximal_planar", n=n, seed=seed)
                )
                for p in (0.15, 0.3):
                    rng = random.Random(seed)
                    kept = {e for e in sorted(host.edge_set) if rng.random() >= p}
                    g = reembed(host, kept)[0]
                    self._check(g)
                    joined += len(g.faces[g.outer_face_id].walks) > 1
        # Some of them leave the outer face with a walk of each component.
        assert joined > 0

    def test_handmade_hosts(self, bowtie, necklace, two_k4):
        two_triangles = PlaneGraph(
            6, [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]], (0, 1)
        )
        for g in (bowtie, necklace, two_k4, two_triangles):
            self._check(g)
        assert len(two_triangles.faces[two_triangles.outer_face_id].walks) == 2
        assert len(two_triangles.triangles) == 2

    def test_edgeless_graph(self):
        for n in (0, 1, 3):
            self._check(PlaneGraph(n, [[]] * n, None))


# Each corruption edits a JSON instance in place.  The shape faults only
# the JSON reader knows (a rotation or an outer dart that is not a list
# of the right length) are checked through parse_instance alone.
_CORRUPTIONS = (
    "loop", "range", "repeat", "missing", "reversed", "entry", "outer",
    "count", "rotation shape", "outer shape",
)


@st.composite
def _corrupted(draw, first):
    n = draw(st.integers(4, 14))
    seed = draw(st.integers(0, 999))
    g = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    if draw(st.booleans()):
        rng = random.Random(seed)
        g = reembed(g, {e for e in sorted(g.edge_set) if rng.random() >= 0.3})[0]
    data = instance_to_dict(g)
    rot = data["rotations"]
    kinds = [first] + draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=2))
    for kind in kinds:
        u = draw(st.integers(0, n - 1))
        nbrs = rot[u]
        if not isinstance(nbrs, list):
            continue
        at = draw(st.integers(0, len(nbrs)))
        if kind == "loop":
            nbrs.insert(at, u)
        elif kind == "range":
            nbrs.insert(at, draw(st.sampled_from([-1, n, n + 3])))
        elif kind == "repeat" and nbrs:
            nbrs.insert(at, draw(st.sampled_from(nbrs)))
        elif kind == "missing" and nbrs:
            del nbrs[at % len(nbrs)]
        elif kind == "reversed":
            nbrs.reverse()
        elif kind == "entry" and nbrs:
            nbrs[at % len(nbrs)] = draw(st.sampled_from([True, False, 1.0, "1", None]))
        elif kind == "outer":
            data["outer"] = draw(
                st.sampled_from([[0, 0], [0, n], [n - 1, -1], [True, 1], [0, 1.0], None])
            )
        elif kind == "count":
            data["n"] = n + draw(st.sampled_from([-1, 1]))
        elif kind == "rotation shape":
            rot[u] = draw(st.sampled_from([5, "ab", None, {}]))
        elif kind == "outer shape":
            data["outer"] = draw(st.sampled_from([[0, 1, 2], [0], "01", 7]))
    return data, kinds


@pytest.mark.parametrize("first", _CORRUPTIONS)
@settings(max_examples=40, deadline=None)
@given(source=st.data())
def test_corrupted_instances_fail_as_the_reference_does(first, source):
    # Up to two more corruptions pin which fault is reported first.
    data, kinds = source.draw(_corrupted(first))
    expected = _outcome(lambda: host_tables(data))
    assert _outcome(lambda: tables_of(parse_instance(data))) == expected, kinds
    if "rotation shape" not in kinds and "outer shape" not in kinds:
        direct = _outcome(
            lambda: tables_of(PlaneGraph(data["n"], data["rotations"], data["outer"]))
        )
        assert direct == expected, kinds


class TestRelabeling:
    def test_reversal_preserves_structure(self, k4):
        perm = [3, 2, 1, 0]
        h = relabeled(k4, perm)
        assert h.n == k4.n
        assert h.edge_count == k4.edge_count
        assert h.f3_internal == k4.f3_internal
        assert h.f3_all == k4.f3_all
        assert sorted(len(f.vertices) for f in h.faces) == sorted(
            len(f.vertices) for f in k4.faces
        )
        assert h.edge_set == {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in k4.edge_set
        }

    def test_rejects_non_permutation(self, k4):
        with pytest.raises(InstanceFormatError):
            relabeled(k4, [0, 0, 1, 2])
        # Floats and bools sort as the ints they equal.
        for perm in ([0.0, 1.0, 2.0, 3.0], [0, True, 2, 3]):
            with pytest.raises(InstanceFormatError, match="must be a permutation"):
                relabeled(k4, perm)


class TestInstanceIO:
    def test_roundtrip(self, prism9, tmp_path):
        path = tmp_path / "inst.json"
        dump_instance(prism9, path)
        # One compact JSON line.
        assert path.read_text(encoding="utf-8") == json.dumps(instance_to_dict(prism9)) + "\n"
        g = load_instance(path)
        assert g.n == prism9.n
        assert g.rotations == prism9.rotations
        assert g.outer_face_id == prism9.outer_face_id
        assert [t.vertices for t in g.triangles] == [
            t.vertices for t in prism9.triangles
        ]

    def test_dict_shape(self, triangle):
        d = instance_to_dict(triangle)
        assert d["n"] == 3
        assert d["rotations"] == [[1, 2], [2, 0], [0, 1]]
        assert tuple(d["outer"]) == (1, 0)

    def test_entry_faults_come_before_later_shape_faults(self):
        # PlaneGraph checks the entries, parse_instance the shape; an entry
        # fault of an earlier vertex is still the one reported.
        entry = "rotation of vertex 0 holds a non-integer entry True"
        for rotations, outer in (([[True], 5], [0, 1]), ([[True], [0]], [0, 1, 2])):
            data = {"n": 2, "rotations": rotations, "outer": outer}
            with pytest.raises(InstanceFormatError) as exc:
                parse_instance(data)
            assert str(exc.value) == entry
        with pytest.raises(InstanceFormatError, match="vertex 0 must be a list"):
            parse_instance({"n": 2, "rotations": [5, [True]], "outer": [0, 1]})

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(InstanceFormatError):
            load_instance(path)
        path.write_text(json.dumps({"n": 2}))
        with pytest.raises(InstanceFormatError):
            load_instance(path)
