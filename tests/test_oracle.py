"""Branch-and-bound exact optima on small instances."""

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
)
from cactus_forge.cactus import triples_form_cactus
from cactus_forge.cli import main
from cactus_forge.oracle import CANDIDATE_GUARD
from cactus_forge.plane_graph import dump_instance, plane_subgraph


@pytest.fixture(scope="module")
def octa():
    return build_instance(GeneratorSpec("platonic", name="octahedron"))


@pytest.fixture(scope="module")
def icosa():
    return build_instance(GeneratorSpec("platonic", name="icosahedron"))


def check_witness(g, res):
    faces = {t.vertices for t in g.triangles}
    assert len(res.witness) == res.optimum
    assert all(t in faces for t in res.witness)
    assert triples_form_cactus(res.witness)


def test_platonic_optima(k4, octa, icosa):
    for g, expected in ((k4, 1), (octa, 2), (icosa, 5)):
        res = exact_beta_faces(g)
        assert res.optimum == expected
        assert res.exhausted
        assert res.nodes_explored > 0
        check_witness(g, res)


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
        check_witness(g, res)


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
    assert triples_form_cactus(res.witness)


def test_candidate_guard():
    g = build_instance(GeneratorSpec("random_maximal_planar", n=30, seed=7))
    assert g.f3_all > CANDIDATE_GUARD
    with pytest.raises(CandidateGuardError) as exc:
        exact_beta_faces(g)
    assert exc.value.count == g.f3_all
    assert exc.value.guard == CANDIDATE_GUARD


def test_budget_carries_partial_result(icosa):
    with pytest.raises(BudgetExceededError) as exc:
        exact_beta_faces(icosa, budget=10)
    partial = exc.value.result
    assert not partial.exhausted
    assert partial.nodes_explored >= 10
    assert partial.optimum <= 5
    assert triples_form_cactus(partial.witness)


def brute_force_beta(cands):
    """Largest subset of the candidates that forms a cactus, by exhaustion."""
    for k in range(len(cands), 0, -1):
        if any(triples_form_cactus(s) for s in combinations(cands, k)):
            return k
    return 0


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 9), st.integers(0, 500), st.data())
def test_faces_optimum_matches_brute_force(n, seed, data):
    host = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    dropped = data.draw(st.lists(st.sampled_from(sorted(host.edge_set)), unique=True))
    g, _ = plane_subgraph(host, range(host.n), dropped)
    cands = [t.vertices for t in g.triangles]
    assume(len(cands) <= 14)
    res = exact_beta_faces(g)
    assert res.exhausted
    assert res.optimum == brute_force_beta(cands)
    check_witness(g, res)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=16))
def test_cliques_optimum_matches_brute_force(pairs):
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    cands = [
        t for t in combinations(range(7), 3)
        if all(e in edges for e in combinations(t, 2))
    ]
    assume(len(cands) <= 14)
    res = exact_beta_all_triangles(sorted(edges))
    assert res.exhausted
    assert res.optimum == brute_force_beta(cands)
    assert len(res.witness) == res.optimum
    assert set(res.witness) <= set(cands)
    assert triples_form_cactus(res.witness)


@pytest.fixture(scope="module")
def rmp520():
    # 1036 candidates: far more than any recursion limit allows as depth
    return build_instance(GeneratorSpec("random_maximal_planar", n=520, seed=1))


def test_large_search_runs_out_of_budget_not_stack(rmp520):
    assert rmp520.f3_all == 1036
    with pytest.raises(BudgetExceededError) as exc:
        exact_beta_faces(rmp520, budget=2000, allow_large=True)
    partial = exc.value.result
    assert partial.nodes_explored == 2001
    assert triples_form_cactus(partial.witness)


def test_large_search_cli_exits_4(rmp520, tmp_path, capsys):
    inst = tmp_path / "rmp520.json"
    dump_instance(rmp520, inst)
    code = main(["oracle", "--in", str(inst), "--allow-large", "--budget", "2000"])
    assert code == 4
    err = capsys.readouterr().err
    assert "oracle refused" in err
    assert "Traceback" not in err
