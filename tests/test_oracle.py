"""β by matroid parity, checked against branch and bound, brute force and dense rank."""

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from cactus_forge import (
    BudgetExceededError,
    CactusForgeError,
    GeneratorSpec,
    InvalidCactusError,
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
from cactus_forge import oracle
from cactus_forge.oracle import DEFAULT_BUDGET, clique_candidates, face_candidates
from cactus_forge.plane_graph import dump_instance
from reference_oracle import reference_beta, reference_parity_rank, reference_rank
from reference_subgraph import reembed


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
    budget = len(cands) + 1
    wres, witness = max_cactus(cands, budget=budget)
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
    # The default budget serves 40 candidates; the value needs one rank.
    g = build_instance(GeneratorSpec("random_maximal_planar", n=30, seed=7))
    assert g.f3_all == 56 > DEFAULT_BUDGET - 1
    res = exact_beta_faces(g)
    assert res.optimum == res.ceiling == 14 and res.exhausted
    with pytest.raises(BudgetExceededError) as exc:
        max_cactus(face_candidates(g))
    assert exc.value.result == res
    assert str(exc.value) == (
        "the witness may need 57 rank evaluations, more than the budget of 41; "
        "raise it with --budget (beta = 14)"
    )
    checked_witness(face_candidates(g), res)


def test_budget_is_checked_before_the_search(monkeypatch):
    # rmp n30 s7 has 56 candidates and its witness takes 54 evaluations,
    # but 56 is refused up front: the cap is m + 1, not the count used.
    g = build_instance(GeneratorSpec("random_maximal_planar", n=30, seed=7))
    cands = face_candidates(g)
    ranks = []
    real_rank = oracle._Parity.rank
    monkeypatch.setattr(oracle._Parity, "rank",
                        lambda self, keep: ranks.append(1) or real_rank(self, keep))
    with pytest.raises(BudgetExceededError) as exc:
        max_cactus(cands, budget=56)
    assert len(ranks) == 1 and exc.value.result.nodes_explored == 1
    assert exc.value.result.optimum == 14
    ranks.clear()
    res, witness = max_cactus(cands, budget=57)
    assert len(ranks) == res.nodes_explored == 54 and len(witness) == 14


def test_budget_carries_partial_result(icosa):
    # The budget counts rank evaluations; the value rides along.
    with pytest.raises(BudgetExceededError) as exc:
        max_cactus(face_candidates(icosa), budget=10)
    partial = exc.value.result
    assert partial.nodes_explored == 1
    assert partial.optimum == 5 and partial.exhausted


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=24),
       st.integers(1, 40))
def test_witness_stays_within_its_budget(pairs, budget):
    edges, cands = clique_graph(pairs, 9)
    value = exact_beta_all_triangles(edges)
    if len(cands) + 1 > budget:
        with pytest.raises(BudgetExceededError) as exc:
            max_cactus(cands, budget=budget)
        assert exc.value.result == value
    else:
        res, witness = max_cactus(cands, budget=budget)
        assert res.nodes_explored <= budget
        assert res.optimum == value.optimum == len(witness)


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_bad_input(octa, tmp_path, capsys, budget):
    # Rejected before any rank evaluation, not reported as a spent budget.
    message = f"--budget must be at least 1, got {budget}"
    with pytest.raises(CactusForgeError, match=message) as exc:
        max_cactus(face_candidates(octa), budget=budget)
    assert not isinstance(exc.value, BudgetExceededError)
    inst = tmp_path / "octa.json"
    dump_instance(octa, inst)
    assert main(["oracle", "--in", str(inst), "--budget", str(budget)]) == 4
    err = capsys.readouterr().err
    assert message in err and "oracle refused" not in err


@pytest.mark.parametrize("budget", [2.5, True, "41"])
def test_budget_must_be_an_int(octa, budget):
    # 2.5 used to run, and True was refused as a spent "budget of True".
    with pytest.raises(CactusForgeError, match=re.escape(f"an int, got {budget!r}")) as exc:
        max_cactus(face_candidates(octa), budget=budget)
    assert not isinstance(exc.value, BudgetExceededError)


@pytest.mark.parametrize(
    "bad", [(0, 0, 0), (0, 1), (0, 1, 1), (0, 1, 2, 3), (0, 1, True), [0, 1.0, 2], 5]
)
def test_degenerate_candidate_is_bad_input(bad):
    # (0, 0, 0) used to raise a KeyError, (0, 1) a bare ValueError, and
    # (0, 1, 1) returned beta = 0.  An InvalidCactusError exits 4 in the CLI.
    with pytest.raises(InvalidCactusError, match=re.escape(repr(bad))):
        max_cactus([(3, 4, 5), bad])


def test_list_candidates_give_tuple_witnesses():
    res, witness = max_cactus([[0, 1, 2], (3, 4, 5)])
    assert res.optimum == 2 and witness == ((0, 1, 2), (3, 4, 5))


def brute_force_beta(cands):
    """Largest subset of the candidates that forms a cactus, by exhaustion."""
    for k in range(len(cands), 0, -1):
        if any(triples_form_cactus(s) for s in combinations(cands, k)):
            return k
    return 0


def edge_deleted(n, seed, dropped):
    host = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    g, _, _ = reembed(host, host.edge_set - set(dropped(sorted(host.edge_set))))
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


def test_host_and_oracle_read_one_ceiling():
    # Deleting edges leaves vertices and ears on no candidate triangle, so
    # a count over host components would sit above the oracle's on these
    # rows.  The host's cached ceiling is the oracle's, and a 2-swap
    # optimum is at the ceiling exactly when it reaches the oracle's: 12
    # rows do, 11 of them below the host-component count.
    host_count_above = reaches = 0
    for n in (24, 40, 64):
        for seed in range(15):
            rng = random.Random(seed)
            g = edge_deleted(n, seed, lambda edges: [e for e in edges if rng.random() < 0.3])
            res = exact_beta_faces(g)
            assert g.ceiling == res.ceiling
            sizes = Counter(g.comp_of_vertex).values()
            host_count_above += sum((s - 1) // 2 for s in sizes) > res.ceiling
            c, _ = local_search(g)
            assert c.at_ceiling == (c.delta == res.ceiling)
            reaches += c.at_ceiling
    assert (host_count_above, reaches) == (44, 12)


@pytest.fixture(scope="module")
def rmp520():
    # 1036 candidates, far past the witness guard
    return build_instance(GeneratorSpec("random_maximal_planar", n=520, seed=1))


def test_large_search_runs_out_of_budget_not_stack(rmp520):
    # The value is one rank evaluation at any size; the witness then
    # needs more than the default budget, and nothing else runs.
    assert rmp520.f3_all == 1036
    with pytest.raises(BudgetExceededError) as exc:
        max_cactus(face_candidates(rmp520))
    partial = exc.value.result
    assert (partial.optimum, partial.ceiling, partial.exhausted) == (259, 259, True)
    assert partial.nodes_explored == 1


def test_large_search_cli_exits_4(rmp520, tmp_path, capsys):
    inst = tmp_path / "rmp520.json"
    dump_instance(rmp520, inst)
    code = main(["oracle", "--in", str(inst), "--budget", "1036"])
    assert code == 4
    err = capsys.readouterr().err
    assert "oracle refused" in err
    assert "1037 rank evaluations" in err and "beta = 259" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# the sparse elimination against the dense reference

PRIME = oracle.PRIME


@st.composite
def skew_matrices(draw):
    """A skew-symmetric matrix on distinct vertex ids, as (ids, upper entries).

    Entries come from {0, 1, 2, -1}, so Schur complement entries often
    cancel to 0 and must be deleted from the sparse rows.
    """
    ids = draw(st.lists(st.integers(-20, 20), unique=True, max_size=9))
    pairs = len(ids) * (len(ids) - 1) // 2
    upper = draw(st.lists(st.sampled_from([0, 1, 2, PRIME - 1]),
                          min_size=pairs, max_size=pairs))
    return ids, upper


@settings(max_examples=300, deadline=None)
@given(skew_matrices())
def test_skew_rank_matches_dense_rank(matrix):
    ids, upper = matrix
    s = len(ids)
    dense = [[0] * s for _ in range(s)]
    adj = {v: {} for v in ids}
    entries = iter(upper)
    for i in range(s):
        for j in range(i + 1, s):
            x = next(entries)
            dense[i][j], dense[j][i] = x, -x % PRIME
            if x:
                adj[ids[i]][ids[j]], adj[ids[j]][ids[i]] = x, PRIME - x
    assert oracle._skew_rank(adj) == reference_rank(dense)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random_maximal_planar", "apollonian"]), st.integers(4, 28),
       st.integers(0, 10_000), st.sampled_from([0.0, 0.15, 0.4]), st.booleans(),
       st.integers(0, 3), st.data())
def test_parity_rank_matches_dense_rank(family, n, seed, p, cliques, repeats, data):
    # Edge-deleted hosts have several components; repeated candidates sum
    # their weights on shared entries.
    host = build_instance(GeneratorSpec(family, n=n, seed=seed))
    rng = random.Random(seed)
    g, _, _ = reembed(host, {e for e in host.edge_set if rng.random() >= p})
    cands = clique_candidates(g) if cliques else face_candidates(g)
    cands += cands[:repeats]
    keep = data.draw(st.lists(st.integers(0, len(cands) - 1), unique=True)) if cands else []
    parity = oracle._Parity(cands, 0)  # the ceiling plays no part in a rank
    assert parity.rank(keep) == reference_parity_rank(cands, keep)
    assert parity.rank(range(len(cands))) == reference_parity_rank(cands, range(len(cands)))


def test_cancelling_weights_leave_no_zero_entry(monkeypatch):
    # Weights that sum to 0 on an entry (probability about 1/p) must
    # delete it, not leave a zero for the elimination to pivot on.
    monkeypatch.setattr(oracle, "_weights", lambda m: (1, PRIME - 1, 5))
    parity = oracle._Parity([(0, 1, 2), (0, 1, 2), (0, 1, 3)], 1)
    assert parity.rank([0, 1]) == 0
    assert parity.rank([0, 1, 2]) == 2


def test_witnesses_are_pinned():
    # The witnesses and evaluation counts of rmp n = 32 and 64, seed 1,
    # as the dense elimination gave them: the elimination order changes
    # no rank, so it changes no witness.
    out = []
    for n in (32, 64):
        cands = face_candidates(build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=1)))
        res, witness = max_cactus(cands, budget=len(cands) + 1)
        out.append([list(res), [list(t) for t in witness]])
    assert [r[0] for r in out] == [[15, 15, True, 61], [31, 31, True, 125]]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "2e5f4a1ad990addc25fc86feaf9393ae9e310f3936dd0ad16c2598b1a9bf9f8c"
