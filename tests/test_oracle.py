"""β by matroid parity, checked against branch and bound and brute force."""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from cactus_forge import (
    BudgetExceededError,
    CandidateGuardError,
    GeneratorSpec,
    SearchConfig,
    build_instance,
    exact_beta_all_triangles,
    exact_beta_faces,
    greedy_initial,
    local_search,
    max_cactus,
)
from cactus_forge.cactus import triples_form_cactus
from cactus_forge.cli import main
from cactus_forge.oracle import CANDIDATE_GUARD, clique_candidates, face_candidates
from cactus_forge.plane_graph import dump_instance, plane_subgraph
from reference_oracle import reference_beta


@pytest.fixture(scope="module")
def octa():
    return build_instance(GeneratorSpec("platonic", name="octahedron"))


@pytest.fixture(scope="module")
def icosa():
    return build_instance(GeneratorSpec("platonic", name="icosahedron"))


def faces_of(g):
    return [t.vertices for t in g.triangles]


def checked_witness(cands, res):
    """The self-reduction's witness, checked against the value ``res``."""
    wres, witness = max_cactus(cands, allow_large=True)
    assert (wres.optimum, wres.ceiling, wres.exhausted) == (
        res.optimum, res.ceiling, res.exhausted
    )
    assert wres.nodes_explored <= 1 + len(cands)
    assert len(witness) == res.optimum
    assert set(witness) <= set(cands)
    assert triples_form_cactus(witness)
    return witness


def test_platonic_optima(k4, octa, icosa):
    for g, expected in ((k4, 1), (octa, 2), (icosa, 5)):
        res = exact_beta_faces(g)
        assert res.optimum == res.ceiling == expected
        assert res.exhausted
        assert res.nodes_explored == 1
        checked_witness(faces_of(g), res)


def test_small_fixture_optima(triangle, double_ear, bowtie, necklace, prism9):
    # the ear faces (0,1,3) and (0,2,4) of double_ear share only vertex 0,
    # so the optimum there is 2 even though the inner faces alone give 1
    expected = {
        "triangle": (triangle, 1),
        "double_ear": (double_ear, 2),
        "bowtie": (bowtie, 2),
        "necklace": (necklace, 2),
        "prism9": (prism9, 2),
    }
    for name, (g, beta) in expected.items():
        res = exact_beta_faces(g)
        assert res.optimum == beta, name
        assert res.optimum == reference_beta(faces_of(g)), name
        checked_witness(faces_of(g), res)


def test_handmade_optima_match_oracle(heavy_pair, heavy_path):
    assert exact_beta_faces(heavy_pair.g).optimum == 2
    assert exact_beta_faces(heavy_path.g).optimum == 3


def test_local_search_never_beats_oracle():
    for n, seed in ((12, 0), (14, 3), (16, 5), (18, 9)):
        g = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
        beta = exact_beta_faces(g).optimum
        d2 = local_search(g, SearchConfig(t=2))[0].delta
        greedy = greedy_initial(g).delta
        assert d2 <= beta
        # any maximal cactus reaches at least half the optimum
        assert 2 * greedy >= beta


def test_known_random_value():
    g = build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=5))
    assert exact_beta_faces(g).optimum == 7


def test_all_triangles_variant_on_plane_graphs(k4, octa):
    assert exact_beta_all_triangles(k4).optimum == 1
    assert exact_beta_all_triangles(octa).optimum == 2


def test_all_triangles_accepts_abstract_graphs():
    k5_adj = {u: [v for v in range(5) if v != u] for u in range(5)}
    k5_edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    res = exact_beta_all_triangles(k5_adj)
    assert res.optimum == 2
    assert exact_beta_all_triangles(k5_edges).optimum == 2
    checked_witness(clique_candidates(k5_edges), res)


def test_below_the_ceiling_the_value_is_not_certain():
    # Three triangles on the one edge 01: any two share it, so beta is 1,
    # while five vertices in one component allow 2.
    book = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
    res = exact_beta_all_triangles(book)
    assert (res.optimum, res.ceiling, res.exhausted) == (1, 2, False)
    checked_witness(clique_candidates(book), res)


def test_ceiling_sums_over_candidate_components(two_k4):
    # Two K4s: one triangle each, not floor((8 - 1) / 2) = 3.
    res = exact_beta_faces(two_k4)
    assert (res.optimum, res.ceiling, res.exhausted) == (2, 2, True)


def test_candidate_guard():
    # The guard holds only for the witness; the value needs one rank.
    g = build_instance(GeneratorSpec("random_maximal_planar", n=30, seed=7))
    assert g.f3_all > CANDIDATE_GUARD
    res = exact_beta_faces(g)
    assert res.optimum == res.ceiling == 14 and res.exhausted
    with pytest.raises(CandidateGuardError) as exc:
        max_cactus(face_candidates(g))
    assert exc.value.count == g.f3_all
    assert exc.value.guard == CANDIDATE_GUARD
    checked_witness(face_candidates(g), res)


def test_budget_carries_partial_result(icosa):
    # The budget counts rank evaluations; the value rides along.
    with pytest.raises(BudgetExceededError) as exc:
        max_cactus(face_candidates(icosa), budget=10)
    partial = exc.value.result
    assert partial.nodes_explored == 10
    assert partial.optimum == 5 and partial.exhausted


def brute_force_beta(cands):
    """Largest subset of the candidates that forms a cactus, by exhaustion."""
    for k in range(len(cands), 0, -1):
        if any(triples_form_cactus(s) for s in combinations(cands, k)):
            return k
    return 0


def edge_deleted(n, seed, dropped):
    host = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    g, _ = plane_subgraph(host, range(host.n), dropped(sorted(host.edge_set)))
    return g


def clique_graph(pairs, n):
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    cands = [
        t for t in combinations(range(n), 3)
        if all(e in edges for e in combinations(t, 2))
    ]
    return sorted(edges), cands


def assert_matches_reference(res, expected):
    assert res.optimum == expected
    assert expected <= res.ceiling
    assert res.exhausted == (expected == res.ceiling)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 9), st.integers(0, 500), st.data())
def test_faces_optimum_matches_brute_force(n, seed, data):
    g = edge_deleted(n, seed, lambda edges: data.draw(
        st.lists(st.sampled_from(edges), unique=True)))
    cands = faces_of(g)
    assume(len(cands) <= 14)
    res = exact_beta_faces(g)
    expected = brute_force_beta(cands)
    assert reference_beta(cands) == expected
    assert_matches_reference(res, expected)
    checked_witness(cands, res)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=16))
def test_cliques_optimum_matches_brute_force(pairs):
    edges, cands = clique_graph(pairs, 7)
    assume(len(cands) <= 14)
    res = exact_beta_all_triangles(edges)
    expected = brute_force_beta(cands)
    assert reference_beta(cands) == expected
    assert_matches_reference(res, expected)
    checked_witness(cands, res)


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 16), st.integers(0, 10_000), st.floats(0.05, 0.5))
def test_faces_parity_matches_branch_and_bound(n, seed, p):
    rng = random.Random(seed)
    g = edge_deleted(n, seed, lambda edges: [e for e in edges if rng.random() < p])
    res = exact_beta_faces(g)
    assert_matches_reference(res, reference_beta(faces_of(g)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
def test_cliques_parity_matches_branch_and_bound(pairs):
    edges, cands = clique_graph(pairs, 10)
    assume(len(cands) <= 40)
    assert_matches_reference(exact_beta_all_triangles(edges), reference_beta(cands))


def test_edge_deleted_rows_below_the_ceiling_match_branch_and_bound():
    # The properties above draw few rows below the ceiling; this sweep
    # pins a fixed set of them.
    below = 0
    for seed in range(100):
        rng = random.Random(seed)
        g = edge_deleted(6 + seed % 16, seed,
                         lambda edges: [e for e in edges if rng.random() < 0.3])
        res = exact_beta_faces(g)
        expected = reference_beta(faces_of(g))
        assert_matches_reference(res, expected)
        below += expected < res.ceiling
    assert below >= 15  # 19 of the 100 rows


@pytest.fixture(scope="module")
def rmp520():
    # 1036 candidates, far past the witness guard
    return build_instance(GeneratorSpec("random_maximal_planar", n=520, seed=1))


def test_large_search_runs_out_of_budget_not_stack(rmp520):
    # The value is one rank evaluation at any size; the witness then
    # needs more than a budget of one.
    assert rmp520.f3_all == 1036
    with pytest.raises(BudgetExceededError) as exc:
        max_cactus(face_candidates(rmp520), budget=1, allow_large=True)
    partial = exc.value.result
    assert (partial.optimum, partial.ceiling, partial.exhausted) == (259, 259, True)
    assert partial.nodes_explored == 1


def test_large_search_cli_exits_4(rmp520, tmp_path, capsys):
    inst = tmp_path / "rmp520.json"
    dump_instance(rmp520, inst)
    code = main(["oracle", "--in", str(inst), "--allow-large", "--budget", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert "oracle refused" in err
    assert "Traceback" not in err
