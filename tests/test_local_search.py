"""Greedy start, t-swap improvement, and the move scan against a reference walk."""

import gc
import random
import sys
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cactus_forge import (
    GeneratorSpec,
    NotLocallyOptimalError,
    SearchConfig,
    TriangularCactus,
    acceptance_corpus,
    analyze_cactus,
    build_instance,
    find_improving_swap,
    greedy_initial,
    local_search,
    verify_local_optimality,
)
from cactus_forge.cli import main
from cactus_forge.local_search import SwapMove, _MoveScan, apply_move
from cactus_forge.oracle import exact_beta_faces
from cactus_forge.plane_graph import dump_instance
from reference_subgraph import reembed


@pytest.fixture(scope="module")
def octa():
    return build_instance(GeneratorSpec("platonic", name="octahedron"))


@pytest.fixture(scope="module")
def icosa():
    return build_instance(GeneratorSpec("platonic", name="icosahedron"))


@pytest.fixture(scope="module")
def rmp16():
    return build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=5))


def test_greedy_is_maximal(octa, rmp16):
    for g in (octa, rmp16):
        c = greedy_initial(g)
        assert all(not c.copy().try_add_triangle(t.id) for t in g.triangles)


def test_greedy_known_sizes(octa, icosa, rmp16):
    assert greedy_initial(octa).delta == 2
    assert greedy_initial(icosa).delta == 5
    assert greedy_initial(rmp16).delta == 6


def test_solved_sizes_platonic(octa, icosa):
    c_octa, _ = local_search(octa)
    c_icosa, _ = local_search(icosa)
    assert c_octa.delta == 2
    assert c_icosa.delta == 5


def test_solved_sizes_random(rmp16):
    c1, _ = local_search(rmp16, SearchConfig(t=1))
    c2, _ = local_search(rmp16, SearchConfig(t=2))
    assert c1.delta == 7
    assert c2.delta == 7


def test_larger_instance_improves_over_greedy():
    g = build_instance(GeneratorSpec("random_maximal_planar", n=64, seed=60))
    c, trace = local_search(g, SearchConfig(t=2))
    assert trace.initial_delta == 29
    assert c.delta == 31
    assert len(trace.moves_applied) == 2


def test_trace_bookkeeping(rmp16):
    c, trace = local_search(rmp16)
    assert trace.final_delta == len(c) == trace.initial_delta + len(
        trace.moves_applied
    )
    assert trace.moves_examined > 0
    assert trace.wall_time_s >= 0.0
    for move in trace.moves_applied:
        assert len(move.add) == len(move.remove) + 1


def test_move_enumeration_is_lexicographic(rmp16):
    # The search applies the first move found; that is the lexicographic
    # minimum only because the scan yields moves in increasing order.
    keys = [
        (len(m.remove), m.remove, m.add)
        for m in _MoveScan(rmp16, greedy_initial(rmp16)).moves(2)
    ]
    assert len(keys) > 1
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_one_swap_never_beats_two_swap():
    for seed in range(6):
        g = build_instance(
            GeneratorSpec("random_maximal_planar", n=18 + seed, seed=seed)
        )
        d1 = local_search(g, SearchConfig(t=1))[0].delta
        d2 = local_search(g, SearchConfig(t=2))[0].delta
        assert d1 <= d2


def test_verifier_blesses_solver_output(rmp16, octa):
    for g in (octa, rmp16):
        c, _ = local_search(g)
        assert verify_local_optimality(g, c, 2) == (True, None)


def test_verifier_catches_suboptimal_greedy(rmp16):
    c = greedy_initial(rmp16)
    assert c.delta == 6
    ok, witness = verify_local_optimality(rmp16, c, 2)
    assert not ok
    before = c.delta
    apply_move(c, witness)
    assert c.delta == before + 1


def test_find_improving_swap_agrees_with_verifier(rmp16, octa, two_k4, bowtie):
    # Both return the reference walk's first move, whatever the cactus.
    for g in (octa, rmp16, two_k4, bowtie):
        short = local_search(g)[0]
        if len(short):
            short.remove_triangle(short.triangle_ids[0])
        for c in (greedy_initial(g), short, TriangularCactus(g)):
            move = find_improving_swap(g, c, 2)
            assert move == next(_ReferenceScan(g, c).moves(2), None)
            assert verify_local_optimality(g, c, 2) == (move is None, move)
        # A 2-swap optimum minus a triangle is not maximal: a 0-swap wins.
        assert find_improving_swap(g, short, 2).remove == ()


def test_witness_on_handmade_non_optimum(heavy_shape_bad):
    g, c = heavy_shape_bad.g, heavy_shape_bad.cactus
    ok, witness = verify_local_optimality(g, c, 2)
    assert not ok
    assert witness.remove == (1,)
    assert witness.add == (2, 4)
    apply_move(c, witness)
    assert c.delta == 3
    assert verify_local_optimality(g, c, 2) == (True, None)


def test_handmade_optima_survive_verification(heavy_pair, heavy_path):
    for case in (heavy_pair, heavy_path):
        assert verify_local_optimality(case.g, case.cactus, 2) == (True, None)


def test_config_validation(rmp16, tmp_path, capsys):
    with pytest.raises(ValueError):
        local_search(rmp16, SearchConfig(t=3))
    # The pivot rule is gone; the flag is a usage error.
    path = tmp_path / "rmp16.json"
    dump_instance(rmp16, path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", str(path), "--pivot", "first"])
    assert exc.value.code == 2
    assert "--pivot" in capsys.readouterr().err


# Triangle ids, moves_examined and the count of a final no-move
# scan of seeded runs, frozen so that a faster move scan must enumerate
# exactly the same moves in the same order.  All but (48, 3, 1), which
# ends one triangle short, stop at the ceiling, so their moves_examined
# holds no final no-move scan; the last count pins that scan on its own.
PINNED_RUNS = {
    (16, 1, 1): ((0, 7, 10, 14, 18, 21, 25), 42, 286),
    (16, 1, 2): ((0, 7, 10, 14, 18, 21, 25), 42, 2254),
    (32, 2, 1): ((5, 10, 12, 15, 20, 23, 29, 33, 38, 42, 44, 47, 50, 51, 55), 548, 1134),
    (32, 2, 2): ((5, 10, 12, 15, 20, 23, 29, 33, 38, 42, 44, 47, 50, 51, 55), 548, 18358),
    (48, 3, 1): (
        (6, 7, 11, 14, 15, 19, 21, 23, 29, 34, 37, 44, 48, 52, 54, 59, 72, 76,
         77, 80, 84, 90),
        3123,
        2680,
    ),
    (48, 3, 2): (
        (3, 6, 7, 11, 14, 15, 19, 21, 23, 35, 37, 44, 48, 52, 54, 59, 67, 72,
         76, 77, 80, 84, 90),
        40038,
        49400,
    ),
}


@pytest.mark.parametrize("n, seed, t", sorted(PINNED_RUNS))
def test_pinned_search_runs(n, seed, t):
    g = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    c, trace = local_search(g, SearchConfig(t=t))
    ids, examined, final_scan = PINNED_RUNS[n, seed, t]
    assert c.triangle_ids == ids
    assert trace.moves_examined == examined
    assert c.at_ceiling == ((n, seed, t) != (48, 3, 1))
    scan = _MoveScan(g, c)
    assert next(scan.moves(t), None) is None
    assert scan.examined == final_scan


def test_search_stops_at_the_ceiling(two_k4, triangle_with_tail):
    # Greedy takes one triangle per K4, and the one triangle of the tailed
    # host, which is the ceiling: no scan runs.
    for g, delta in ((two_k4, 2), (triangle_with_tail, 1)):
        c, trace = local_search(g)
        assert (c.delta, c.at_ceiling) == (delta, True)
        assert c.delta == exact_beta_faces(g).ceiling
        assert trace.moves_examined == 0


def test_ceiling_results_pass_the_unpruned_verifier():
    # The verifier certifies these without a scan; the raw scan must agree.
    specs = [
        GeneratorSpec("random_maximal_planar", n=n, seed=n) for n in range(4, 25)
    ] + list(acceptance_corpus(0))
    at_ceiling = 0
    for spec in specs:
        g = build_instance(spec)
        c, _ = local_search(g)
        if c.at_ceiling:
            at_ceiling += 1
            assert verify_local_optimality(g, c, 2) == (True, None)
            assert find_improving_swap(g, c, 2) is None
    assert at_ceiling > len(specs) // 2


def test_the_ceiling_certificate_runs_no_scan(
    monkeypatch, rmp16, octa, two_k4, triangle_with_tail
):
    def no_scan(*args):
        raise AssertionError("the verifier scanned a cactus at the ceiling")

    cacti = []
    for g in (rmp16, octa, two_k4, triangle_with_tail):
        c, _ = local_search(g)
        assert c.at_ceiling and c.delta == exact_beta_faces(g).ceiling
        cacti.append((g, c))
    monkeypatch.setattr(sys.modules[_MoveScan.__module__], "_MoveScan", no_scan)
    for g, c in cacti:
        for t in (0, 1, 2):
            assert verify_local_optimality(g, c, t) == (True, None)
        assert analyze_cactus(g, c).verified_optimal


def test_below_the_ceiling_the_verifier_returns_the_scan_witness(rmp16):
    c = greedy_initial(rmp16)
    assert not c.at_ceiling
    move = find_improving_swap(rmp16, c, 2)
    assert move is not None
    assert verify_local_optimality(rmp16, c, 2) == (False, move)
    with pytest.raises(NotLocallyOptimalError) as exc:
        analyze_cactus(rmp16, c)
    assert exc.value.witness == move


@pytest.mark.parametrize("t", [0, True, False, 1.0])
def test_search_rejects_swap_sizes_it_does_not_run(rmp16, t):
    # True == 1, so a membership test alone would run a 1-swap search.
    with pytest.raises(ValueError):
        local_search(rmp16, SearchConfig(t=t))


@pytest.mark.parametrize("seed", [None, True, 1.5, "1"])
def test_seeds_that_are_not_ints_are_rejected(rmp16, seed):
    # None would draw the shuffle from OS entropy, and True would run seed 1.
    with pytest.raises(ValueError, match="seed must be an int"):
        greedy_initial(rmp16, seed)
    with pytest.raises(ValueError, match="seed must be an int"):
        local_search(rmp16, SearchConfig(seed=seed))


def test_swap_sizes_the_scan_does_not_enumerate_are_rejected(rmp16):
    # This 2-swap optimum ends one triangle short of the ceiling; rmp16's
    # ends at it, where the verifier would otherwise answer unscanned.
    g = build_instance(GeneratorSpec("random_maximal_planar", n=33, seed=90))
    below, _ = local_search(g)
    at, _ = local_search(rmp16)
    assert (below.delta, g.ceiling, at.at_ceiling) == (15, 16, True)
    for host, c in ((g, below), (rmp16, at)):
        for t in (3, 99, -1, True, False, 2.0, None):
            with pytest.raises(ValueError):
                verify_local_optimality(host, c, t)
            with pytest.raises(ValueError):
                find_improving_swap(host, c, t)
        for t in (0, 1, 2):
            assert verify_local_optimality(host, c, t) == (True, None)


def test_chained_searches_match_the_search_from_greedy():
    # The 1-swap optimum is a waypoint of the 2-swap run from greedy: a
    # 2-swap search resumed there ends on the same cactus, through the
    # moves the run from greedy applies after the 1-swap ones.
    for spec in acceptance_corpus():
        g = build_instance(spec)
        c0 = greedy_initial(g)
        c1, trace1 = local_search(g, SearchConfig(t=1), start=c0)
        before = (c1.triangle_ids, c1.labels())
        c2, trace2 = local_search(g, SearchConfig(t=2), start=c1)
        whole, whole_trace = local_search(g, SearchConfig(t=2))
        label = spec.label()
        assert c2.triangle_ids == whole.triangle_ids, label
        k = len(trace1.moves_applied)
        assert whole_trace.moves_applied[:k] == trace1.moves_applied, label
        assert whole_trace.moves_applied[k:] == trace2.moves_applied, label
        assert trace1.initial_delta == c0.delta == greedy_initial(g).delta
        assert trace2.initial_delta == c1.delta
        assert (c1.triangle_ids, c1.labels()) == before, label
        assert c0.triangle_ids == greedy_initial(g).triangle_ids, label


def test_a_start_from_another_host_is_rejected(rmp16, octa):
    with pytest.raises(ValueError):
        local_search(rmp16, start=greedy_initial(octa))
    # An equal host built again is still another graph.
    twin = build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=5))
    with pytest.raises(ValueError):
        local_search(rmp16, start=greedy_initial(twin))
    c, trace = local_search(rmp16, start=greedy_initial(rmp16))
    assert (c.delta, trace.initial_delta) == (7, 6)


def test_certifying_against_another_host_is_rejected():
    # The ceiling and the triangle ids are the cactus's own host's: read
    # against another graph they would certify, or index, the wrong one.
    g1 = build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=1))
    c1, _ = local_search(g1)
    assert c1.at_ceiling
    for n in (16, 20):
        g2 = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=2))
        with pytest.raises(ValueError, match="another host graph"):
            verify_local_optimality(g2, c1, 2)
        with pytest.raises(ValueError, match="another host graph"):
            analyze_cactus(g2, c1, verified=True)
    # A t outside {0, 1, 2} is still reported first.
    with pytest.raises(ValueError, match="swap size"):
        verify_local_optimality(g2, c1, 3)
    # The raw scan takes an equal host rebuilt from the same instance.
    twin = build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=1))
    assert find_improving_swap(twin, c1, 2) is None
    assert verify_local_optimality(g1, c1, 2) == (True, None)


def test_the_raw_scan_rejects_a_cactus_of_another_host():
    # Unchecked, the n12 host's scan of the n30 cactus claimed a local
    # optimum, and the reverse pairing indexed past the n12 host's tables.
    small = build_instance(GeneratorSpec("random_maximal_planar", n=12, seed=1))
    large = build_instance(GeneratorSpec("random_maximal_planar", n=30, seed=2))
    for g, other in ((small, large), (large, small)):
        c, _ = local_search(other)
        with pytest.raises(ValueError, match="another host graph"):
            find_improving_swap(g, c, 2)
    # The same n with another drawing is another host too.
    rmp16 = build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=2))
    c, _ = local_search(build_instance(GeneratorSpec("random_maximal_planar", n=16, seed=1)))
    with pytest.raises(ValueError, match="another host graph"):
        find_improving_swap(rmp16, c, 2)


class _ReferenceScan:
    """The per-position move walk the narrowing scan replaced, kept as an
    independent reference: one union-find per stage, and at each level a
    find/union/undo for every free triangle from the start position on."""

    def __init__(self, g, c):
        self.g = g
        self.verts = [t.vertices for t in g.triangles]
        self.kept = c.triangle_ids
        in_c = set(self.kept)
        self.free = [t.id for t in g.triangles if t.id not in in_c]
        self.examined = 0

    def moves(self, t):
        yield from self._stage(())
        if t >= 1:
            for x in self.kept:
                yield from self._stage((x,))
            if t >= 2:
                for pair in combinations(self.kept, 2):
                    yield from self._stage(pair)

    def _stage(self, removal):
        verts = self.verts
        parent = list(range(self.g.n))
        sizes = [1] * self.g.n
        trail = []

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        def union(a, b):
            if sizes[a] < sizes[b]:
                a, b = b, a
            parent[b] = a
            sizes[a] += sizes[b]
            trail.append(b)

        def undo(mark):
            while len(trail) > mark:
                b = trail.pop()
                sizes[parent[b]] -= sizes[b]
                parent[b] = b

        for x in self.kept:
            if x not in removal:
                a, b, w = verts[x]
                union(find(a), find(b))
                union(find(a), find(w))
        trail.clear()

        free = self.free
        need = len(removal) + 1
        acc = []

        def extend(start):
            for idx in range(start, len(free)):
                y = free[idx]
                a, b, w = verts[y]
                self.examined += 1
                ra, rb, rw = find(a), find(b), find(w)
                if ra == rb or rb == rw or ra == rw:
                    continue
                mark = len(trail)
                union(ra, rb)
                union(find(a), rw)
                acc.append(y)
                if len(acc) == need:
                    yield tuple(acc)
                else:
                    yield from extend(idx + 1)
                acc.pop()
                undo(mark)

        for add in extend(0):
            yield SwapMove(remove=removal, add=add)


def _assert_scans_agree(g, c):
    for t in (0, 1, 2):
        scan, ref = _MoveScan(g, c), _ReferenceScan(g, c)
        assert list(scan.moves(t)) == list(ref.moves(t)), t
        assert scan.examined == ref.examined, t
        scan, ref = _MoveScan(g, c), _ReferenceScan(g, c)
        assert next(scan.moves(t), None) == next(ref.moves(t), None), t
        assert scan.examined == ref.examined, t


def _cacti_along_the_search(g):
    """Greedy, 1-swap and 2-swap cacti, and the 2-swap one minus one and
    minus two triangles, whose tours have several roots."""
    found = [greedy_initial(g)]
    found += [local_search(g, SearchConfig(t=t))[0] for t in (1, 2)]
    for _ in range(2):
        short = found[-1].copy()
        if not len(short):
            break
        short.remove_triangle(short.triangle_ids[len(short) // 2])
        found.append(short)
    return found


@pytest.mark.parametrize(
    "spec",
    [GeneratorSpec("random_maximal_planar", n=n, seed=n) for n in range(8, 49, 5)]
    + [GeneratorSpec("random_maximal_planar", n=64, seed=1)]
    + [GeneratorSpec("apollonian", n=n, seed=n) for n in (5, 13, 22, 30, 38)],
    ids=GeneratorSpec.label,
)
def test_scan_matches_the_reference_walk(spec):
    g = build_instance(spec)
    for c in _cacti_along_the_search(g):
        _assert_scans_agree(g, c)


def test_scan_matches_the_reference_walk_on_disconnected_hosts(two_k4, bowtie):
    for g in (two_k4, bowtie):
        for c in _cacti_along_the_search(g):
            _assert_scans_agree(g, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 14), st.integers(0, 10_000), st.integers(0, 2), st.booleans())
def test_scan_matches_the_reference_walk_on_small_cacti(n, seed, strength, drop):
    g = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    c = local_search(g, SearchConfig(t=strength))[0] if strength else greedy_initial(g, seed)
    if drop and len(c):
        c.remove_triangle(c.triangle_ids[seed % len(c)])
    _assert_scans_agree(g, c)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 14),
    st.integers(0, 10_000),
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from([0.0, 0.15, 0.3]),
)
def test_verifier_matches_the_reference_walk(n, seed, strength, drop, p):
    # On a cactus at the ceiling the verifier runs no scan, so this checks
    # the certificate itself: the reference walk must find no move there.
    g = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
    if p:
        rng = random.Random(seed)
        g = reembed(g, {e for e in sorted(g.edge_set) if rng.random() >= p})[0]
    c = local_search(g, SearchConfig(t=strength))[0] if strength else greedy_initial(g, seed)
    if drop and len(c):
        c.remove_triangle(c.triangle_ids[seed % len(c)])
    for t in (1, 2):
        ref = next(_ReferenceScan(g, c).moves(t), None)
        assert verify_local_optimality(g, c, t) == (ref is None, ref), t


def test_a_finished_scan_is_freed_without_the_cycle_collector(rmp16):
    # A reference cycle would keep the scan, its free list and the tour
    # alive until the cyclic collector runs.
    c, _ = local_search(rmp16)
    gc.disable()
    try:
        scan = _MoveScan(rmp16, c)
        assert list(scan.moves(2)) == []  # every stage ran
        ref = weakref.ref(scan)
        del scan
        assert ref() is None
    finally:
        gc.enable()
