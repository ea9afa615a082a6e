"""End-to-end pipelines, the corpus harness, and the command line."""

import ast
import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cactus_forge import (
    CactusForgeError,
    GeneratorSpec,
    IdentityViolationError,
    PlaneGraph,
    SearchConfig,
    acceptance_corpus,
    build_instance,
    local_search,
    mps_pipeline,
    mpt_pipeline,
    verify_corpus,
)
from cactus_forge import oracle, pipeline
from cactus_forge.cli import main
from cactus_forge.plane_graph import dump_instance
from cactus_forge.pipeline import (
    CSV_COLUMNS,
    report_to_dict,
    write_csv,
    write_sidecar,
)
from reference_subgraph import reembed


@pytest.fixture(scope="module")
def octa():
    return build_instance(GeneratorSpec("platonic", name="octahedron"))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each process pool a sweep starts.  The fake pool runs
    the rows in this process, so no worker is started whatever the count."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


# Which forest edges mps keeps, and into which regions the host's faces
# merge once mpt's cactus alone is kept (the region of each host face, as
# the tests' re-embedding reference numbers them), on the octahedron, the
# disconnected bowtie and random triangulations at seed 1.  The counts and
# ratios tested below would not notice a different forest.
PINNED_MPS_EDGES = {
    "octahedron": (
        (0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5),
    ),
    "bowtie": (
        (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5),
    ),
    16: (
        (0, 1), (0, 2), (0, 5), (0, 6), (0, 8), (0, 9), (0, 10), (1, 2), (1, 3),
        (1, 13), (3, 7), (3, 12), (3, 13), (4, 14), (4, 15), (6, 8), (7, 12), (9, 10),
        (10, 11), (10, 14), (11, 14), (14, 15),
    ),
    32: (
        (0, 2), (0, 8), (0, 9), (0, 10), (0, 12), (0, 14), (0, 16), (0, 17), (0, 20),
        (0, 21), (0, 22), (0, 25), (0, 26), (0, 27), (1, 2), (1, 29), (2, 4), (2, 12),
        (2, 29), (2, 30), (3, 4), (3, 19), (4, 7), (4, 11), (4, 15), (4, 18), (4, 19),
        (4, 28), (4, 30), (5, 13), (5, 28), (6, 9), (6, 24), (7, 28), (8, 10), (9, 24),
        (9, 27), (11, 15), (11, 23), (11, 31), (13, 28), (14, 26), (16, 20), (17, 22),
        (21, 25), (23, 31),
    ),
    48: (
        (0, 6), (0, 8), (0, 17), (0, 22), (0, 40), (0, 44), (1, 5), (1, 21), (1, 29),
        (1, 33), (1, 36), (1, 39), (1, 41), (1, 44), (2, 7), (2, 30), (3, 4), (3, 26),
        (4, 7), (4, 15), (4, 26), (5, 13), (5, 20), (5, 35), (5, 39), (5, 46), (6, 8),
        (6, 12), (6, 27), (7, 15), (7, 28), (7, 29), (7, 30), (7, 37), (7, 43), (8, 9),
        (8, 11), (8, 23), (8, 24), (8, 31), (9, 24), (10, 18), (10, 31), (12, 27),
        (12, 45), (12, 47), (13, 35), (14, 26), (14, 38), (16, 25), (16, 33), (17, 44),
        (18, 19), (18, 31), (18, 34), (19, 32), (19, 34), (19, 42), (20, 46), (21, 33),
        (22, 40), (23, 31), (25, 33), (26, 38), (28, 29), (29, 41), (32, 42), (36, 44),
        (37, 43), (45, 47),
    ),
}
PINNED_MPT_SUB_OF_HOST_FACE = {
    "octahedron": (
        0, 0, 0, 1, 0, 2, 0, 0,
    ),
    "bowtie": (
        0, 1, 2,
    ),
    16: (
        0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7,
        0, 0,
    ),
    32: (
        1, 0, 1, 2, 1, 3, 1, 1, 4, 1, 1, 5, 1, 1, 6, 1, 7, 1, 8, 1, 1, 1, 1, 1, 9, 1,
        1, 1, 10, 1, 1, 1, 1, 1, 1, 11, 1, 1, 1, 12, 1, 1, 1, 1, 13, 1, 1, 14, 1, 1, 1,
        1, 1, 1, 15, 1, 1, 1, 1, 1,
    ),
    48: (
        1, 1, 1, 1, 0, 1, 2, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 4, 1, 1, 1, 5, 1, 6, 1,
        1, 7, 1, 1, 1, 8, 1, 9, 1, 1, 1, 1, 1, 1, 10, 1, 1, 11, 1, 1, 12, 1, 1, 13, 1,
        1, 1, 14, 1, 15, 1, 1, 1, 1, 1, 1, 16, 1, 17, 1, 1, 1, 1, 1, 1, 1, 18, 1, 1,
        19, 1, 20, 1, 1, 21, 1, 1, 22, 1, 1, 23, 1, 1, 1, 1, 1,
    ),
}


def _pinned_graph(key, bowtie):
    if key == "bowtie":
        return bowtie
    if key == "octahedron":
        return build_instance(GeneratorSpec("platonic", name="octahedron"))
    return build_instance(GeneratorSpec("random_maximal_planar", n=key, seed=1))


class TestMps:
    def test_octahedron_chain(self, octa):
        r = mps_pipeline(octa)
        assert r.triangle_count == 2
        assert r.edge_count == 7  # 6 cactus edges + 1 connector
        assert len(r.edges) == 7
        assert r.input_edge_count == 12
        assert r.ratio_vs_input == Fraction(7, 12)
        assert r.ratio_vs_triangulation == Fraction(7, 12)
        assert r.meets_four_ninths is True
        assert Fraction(7, 12) >= Fraction(4, 9)

    def test_non_triangulation_reports_no_guarantee(self):
        fan = build_instance(GeneratorSpec("fan", n=6))
        r = mps_pipeline(fan)
        assert r.ratio_vs_input == Fraction(7, 9)
        assert r.ratio_vs_triangulation == Fraction(7, 12)
        assert r.meets_four_ninths is None

    def test_disconnected_input(self, bowtie):
        r = mps_pipeline(bowtie)
        # n - components + delta = 6 - 2 + 2
        assert r.edge_count == 6
        assert r.ratio_vs_input == 1
        assert set(r.edges) == bowtie.edge_set

    def test_output_edges_exist_in_input(self, octa):
        r = mps_pipeline(octa)
        assert all(octa.has_edge(u, v) for u, v in r.edges)

    @pytest.mark.parametrize("key", list(PINNED_MPS_EDGES))
    def test_pinned_forest_edges(self, key, bowtie):
        assert mps_pipeline(_pinned_graph(key, bowtie)).edges == PINNED_MPS_EDGES[key]


class TestMpt:
    def test_octahedron(self, octa):
        r = mpt_pipeline(octa)
        assert r.output_triangles == 2
        assert r.f3_internal_input == 7
        assert r.ratio == Fraction(2, 7)
        assert r.meets_one_sixth is True
        assert r.cactus_triples == ((0, 1, 4), (1, 2, 5))

    def test_fan_and_lone_triangle(self, triangle):
        fan = build_instance(GeneratorSpec("fan", n=6))
        r = mpt_pipeline(fan)
        assert r.ratio == Fraction(1, 2)
        lone = mpt_pipeline(triangle)
        assert lone.output_triangles == 1
        assert lone.ratio == 1

    def test_random_instance(self):
        g = build_instance(GeneratorSpec("random_maximal_planar", n=20, seed=3))
        r = mpt_pipeline(g)
        assert r.ratio == Fraction(9, 35)
        assert r.meets_one_sixth is True

    def test_guarantee_not_claimed_for_weak_search(self):
        g = build_instance(GeneratorSpec("random_maximal_planar", n=20, seed=3))
        r = mpt_pipeline(g, SearchConfig(t=1))
        assert r.meets_one_sixth is None

    def test_empty_instance(self):
        r = mpt_pipeline(PlaneGraph(0, [], None))
        assert (r.cactus_triples, r.output_triangles, r.f3_internal_input) == ((), 0, 0)
        assert r.ratio is None and r.meets_one_sixth is None

    def test_region_count_check_fires(self, k4, monkeypatch):
        # K4's three inner faces share edges pairwise, so they are no
        # cactus: kept together they leave four three-dart regions, not 3.
        class FakeCactus:
            triangle_ids = [t.id for t in k4.triangles if t.face_id != k4.outer_face_id]

            def __len__(self):
                return len(self.triangle_ids)

        monkeypatch.setattr(
            pipeline, "local_search", lambda g, cfg: (FakeCactus(), None)
        )
        with pytest.raises(IdentityViolationError, match="has 4 regions .* expected 3"):
            mpt_pipeline(k4)

    @pytest.mark.parametrize("key", list(PINNED_MPT_SUB_OF_HOST_FACE))
    def test_pinned_reembedding_provenance(self, key, bowtie):
        g = _pinned_graph(key, bowtie)
        r = mpt_pipeline(g)
        kept = {e for t in r.cactus_triples for e in combinations(t, 2)}
        _, regions, region_of = reembed(g, kept)
        expected = PINNED_MPT_SUB_OF_HOST_FACE[key]
        assert region_of == expected
        assert tuple(region.host_faces for region in regions) == tuple(
            frozenset(hf for hf, sf in enumerate(expected) if sf == i)
            for i in range(max(expected) + 1)
        )


class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch, pool_sizes):
        # threads alone sizes the pool; 0 and the default of 1 run inline.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        corpus = acceptance_corpus(rmp_count=3)[:3]
        verify_corpus(corpus, threads=3)
        verify_corpus(corpus, threads=0)
        verify_corpus(corpus)
        assert pool_sizes == [3]

    def test_negative_counts_are_errors(self):
        # A negative count is a typo, not a request for one worker.
        with pytest.raises(CactusForgeError, match="--threads"):
            verify_corpus([], threads=-3)

    def test_bool_and_non_int_counts_are_errors(self):
        # True == 1 would run one worker and 2.5 would reach the pool.
        for threads in (True, 2.5, "2", None):
            with pytest.raises(CactusForgeError, match="--threads"):
                verify_corpus([], threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_non_spec_entry_is_rejected_before_any_row(
        self, monkeypatch, pool_sizes, threads
    ):
        # A bare tuple has no label(), which each row reads before its guard.
        ran = []
        monkeypatch.setattr(pipeline, "_bench_one", lambda *a: ran.append(a))
        corpus = [GeneratorSpec("wheel", n=5), ("wheel", 5)]
        with pytest.raises(CactusForgeError, match="corpus entry 1"):
            verify_corpus(corpus, threads=threads)
        assert ran == [] and pool_sizes == []


class TestCorpusHarness:
    def test_default_corpus_composition(self):
        corpus = acceptance_corpus()
        assert len(corpus) == 219
        families = {s.family for s in corpus}
        assert families == {
            "random_maximal_planar",
            "wheel",
            "fan",
            "platonic",
            "grid_triangulation",
        }
        sizes = {s.n for s in corpus if s.family == "random_maximal_planar"}
        assert min(sizes) == 4 and max(sizes) == 64

    def test_rmp_count_is_adjustable(self):
        assert len(acceptance_corpus(rmp_count=10)) == 10 + 19

    def test_negative_rmp_count_is_an_error(self):
        with pytest.raises(CactusForgeError, match="rmp_count"):
            acceptance_corpus(-4)

    def test_bool_and_float_rmp_counts_are_errors(self):
        # True == 1 would build the corpus of one triangulation.
        for count in (True, 2.5):
            with pytest.raises(CactusForgeError, match="rmp_count"):
                acceptance_corpus(count)

    def test_prefix_run_is_clean_and_ordered(self):
        corpus = acceptance_corpus(rmp_count=8)[:8]
        res = verify_corpus(corpus)
        assert res.ok
        assert res.failures == ()
        assert [r.instance for r in res.rows] == [s.label() for s in corpus]
        for row in res.rows:
            assert 6 * row.delta_2swap >= row.f3_internal
            assert row.slack_2swap == 6 * row.delta_2swap - row.f3_internal
            if row.beta_faces is not None:
                assert row.delta_2swap <= row.beta_faces
                assert 2 * row.delta_greedy >= row.beta_faces

    def test_csv_is_deterministic_and_wall_free(self, tmp_path):
        corpus = acceptance_corpus(rmp_count=6)[:6]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(verify_corpus(corpus).rows, a)
        write_csv(verify_corpus(corpus).rows, b)
        assert a.read_bytes() == b.read_bytes()
        with open(a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert "wall_solve_s" not in rows[0]
        assert len(rows) == 7

    def test_process_pool_writes_the_same_csv(self, tmp_path):
        corpus = acceptance_corpus()[:4]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        write_csv(verify_corpus(corpus, threads=1).rows, one)
        write_csv(verify_corpus(corpus, threads=2).rows, two)
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize(
        "threads, rows, cpus, expected",
        [(100_000, 3, 2, 2), (100_000, 3, 8, 3), (2, 3, 8, 2), (4, 3, None, None)],
    )
    def test_pool_is_capped_by_rows_and_cpus(
        self, monkeypatch, pool_sizes, threads, rows, cpus, expected
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        corpus = acceptance_corpus(rmp_count=rows)[:rows]
        res = verify_corpus(corpus, threads=threads)
        assert [r.instance for r in res.rows] == [s.label() for s in corpus]
        # cpu_count() may not know the count; then the sweep runs inline.
        assert pool_sizes == ([] if expected is None else [expected])

    def test_import_does_not_load_multiprocessing(self):
        probe = "import sys, cactus_forge.cli; print('multiprocessing' in sys.modules)"
        src = str(Path(pipeline.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "False"

    def test_import_does_not_load_dataclasses(self):
        # Records are NamedTuples, the traceback module loads only on a
        # failed row, and fractions and csv only in the functions that use
        # them.  Modules that site loaded before the import do not count.
        probe = (
            "import sys; before = set(sys.modules); "
            "import cactus_forge, cactus_forge.cli; "
            "print(sorted(set(sys.modules) - before))"
        )
        src = str(Path(pipeline.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        loaded = set(ast.literal_eval(done.stdout))
        assert "cactus_forge.analyzer" in loaded
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "traceback",
                 "fractions", "decimal", "csv"}
        assert not loaded & heavy, sorted(loaded & heavy)

    def test_sidecar_roundtrips(self, tmp_path):
        res = verify_corpus(acceptance_corpus(rmp_count=3)[:3])
        path = tmp_path / "reports.json"
        write_sidecar(res.reports, path)
        data = json.loads(path.read_text())
        assert len(data) == 3
        assert all(d["ok"] for d in data)

    def test_sidecar_times_the_verifier_inside_analyze(self):
        # These rows end at the ceiling, where the verifier certifies
        # without a scan, so verify_s may round to zero.
        res = verify_corpus(acceptance_corpus(rmp_count=6)[2:6])
        for row, side in zip(res.rows, res.reports):
            wall = side["wall"]
            assert side["certified_by"] == "ceiling"
            assert 0 <= wall["verify_s"] <= wall["analyze_s"]
            assert wall["analyze_s"] == round(row.wall_analyze_s, 6)

    def test_sidecar_times_the_verifier_below_the_ceiling(self):
        # This 2-swap optimum ends one triangle short of the ceiling, so
        # the verifier runs its move scan.
        res = verify_corpus([GeneratorSpec("random_maximal_planar", n=33, seed=90)])
        (row,), (side,) = res.rows, res.reports
        assert row.ok and side["certified_by"] == "verifier"
        wall = side["wall"]
        assert 0 < wall["verify_s"] <= wall["analyze_s"]
        assert wall["analyze_s"] == round(row.wall_analyze_s, 6)

    def test_sidecar_splits_solve_into_its_three_searches(self):
        res = verify_corpus(acceptance_corpus(rmp_count=6)[2:6])
        for row, side in zip(res.rows, res.reports):
            wall = side["wall"]
            parts = [wall["greedy_s"], wall["ls1_s"], wall["ls2_s"]]
            assert all(p > 0 for p in parts)
            assert wall["solve_s"] == round(row.wall_solve_s, 6)
            # Each key is rounded on its own, so the sum may differ in the
            # last decimal.
            assert abs(sum(parts) - wall["solve_s"]) <= 2e-6

    def test_sidecar_counts_both_searches(self):
        # The 2-swap counts cover only the search from the 1-swap optimum:
        # nothing where that optimum is at the ceiling, and otherwise the
        # moves a search from greedy applies after the 1-swap ones, which
        # on rmp n48 s3 hold a pair move.
        specs = list(acceptance_corpus(rmp_count=4)[:4])
        specs.append(GeneratorSpec("random_maximal_planar", n=48, seed=3))
        res = verify_corpus(specs)
        for spec, row, side in zip(specs, res.rows, res.reports):
            g = build_instance(spec)
            _, trace1 = local_search(g, SearchConfig(t=1))
            _, whole = local_search(g, SearchConfig(t=2))
            k = len(trace1.moves_applied)
            assert side["search"]["ls1_examined"] == trace1.moves_examined
            assert side["search"]["ls1_moves"] == k
            assert side["search"]["ls2_moves"] == len(whole.moves_applied) - k
            if row.delta_1swap == side["ceiling"]:
                assert side["search"]["ls2_examined"] == 0
            else:
                assert side["search"]["ls2_examined"] > 0
        assert res.reports[-1]["search"]["ls2_moves"] > 0

    def test_verifier_failure_keeps_its_row_text(self, monkeypatch):
        # Hand the harness a greedy cactus as the 2-swap result on a row
        # where greedy is not 2-swap optimal.
        spec = GeneratorSpec("random_maximal_planar", n=20, seed=4)
        search = pipeline.local_search

        def weak(g, cfg, start=None):
            c, trace = search(g, cfg, start=start)
            return (pipeline.greedy_initial(g, cfg.seed) if cfg.t == 2 else c), trace

        monkeypatch.setattr(pipeline, "local_search", weak)
        res = verify_corpus([spec])
        assert res.rows[0].failures == ("analyzer: 2-swap result fails the verifier",)
        assert res.reports[0]["certified_by"] == "verifier"
        wall = res.reports[0]["wall"]
        assert 0 < wall["verify_s"] <= wall["analyze_s"]

    @pytest.mark.parametrize(
        "layer, prefix",
        [("build", "generate: AssertionError"), ("analyze_cactus", "error: AssertionError")],
    )
    def test_bare_exception_fails_only_its_row(self, monkeypatch, layer, prefix):
        corpus = acceptance_corpus(rmp_count=4)[:4]
        original = getattr(pipeline, layer)

        def flaky(arg, *rest, **kwargs):
            # arg is the spec for build and the graph for analyze_cactus;
            # both carry n, which differs on every row of this corpus
            if arg.n == corpus[2].n:
                raise AssertionError("planted")
            return original(arg, *rest, **kwargs)

        monkeypatch.setattr(pipeline, layer, flaky)
        res = verify_corpus(corpus)
        assert [r.instance for r in res.rows] == [s.label() for s in corpus]
        assert res.failures == ((corpus[2].label(), f"{prefix}: planted"),)
        assert [r.ok for r in res.rows] == [True, True, False, True]
        assert ["traceback" in side for side in res.reports] == [False, False, True, False]
        assert "planted" in res.reports[2]["traceback"]

    def test_sidecar_says_why_beta_is_missing(self, monkeypatch):
        # Beta is missing only where the row failed first; elsewhere the
        # sidecar says how sure it is.
        corpus = [
            GeneratorSpec("random_maximal_planar", n=10, seed=0),
            GeneratorSpec("random_maximal_planar", n=30, seed=7),
            GeneratorSpec("wheel", n=2),
        ]
        res = verify_corpus(corpus)
        small, large, error = res.reports
        # n30 s7 has 56 candidates, more than the witness budget serves.
        assert small["oracle_status"] == large["oracle_status"] == "parity-ceiling"
        assert (small["ceiling"], large["ceiling"]) == (4, 14)
        assert [r.beta_faces for r in res.rows[:2]] == [4, 14]
        assert error["oracle_status"] == "error" and error["ceiling"] is None
        assert error["certified_by"] is None and error["search"] is None
        assert res.rows[2].beta_faces is None
        assert "oracle_nodes" not in small

        # Below the ceiling beta is still reported, marked uncertain.
        def below(g):
            r = oracle.exact_beta_faces(g)
            return r._replace(ceiling=r.ceiling + 1, exhausted=False)

        monkeypatch.setattr(pipeline, "exact_beta_faces", below)
        res = verify_corpus(corpus[:1])
        (side,) = res.reports
        assert side["oracle_status"] == "parity" and side["ceiling"] == 5
        assert res.rows[0].beta_faces == 4 and res.rows[0].ok

    def test_report_to_dict_shape(self, heavy_pair):
        from cactus_forge import analyze_cactus

        d = report_to_dict(analyze_cactus(heavy_pair.g, heavy_pair.cactus))
        assert d["ok"] and d["maximal"]
        assert d["anchored_total"] == d["triangular_faces"] == 6
        (comp,) = d["components"]
        assert comp["p"] == 2 and comp["q"] == 6
        assert comp["all_heavy"] is True
        assert {v["name"] for v in comp["verdicts"]} >= {
            "capacity-sum",
            "gain-floors",
            "strict-coverage-bound",
        }
        json.dumps(d)  # must be serializable as-is


class TestCli:
    def _generate(self, tmp_path, *args):
        path = tmp_path / "inst.json"
        assert main(["generate", *args, "--out", str(path)]) == 0
        return path

    def test_generate_solve_analyze_roundtrip(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        solved = tmp_path / "cactus.json"
        assert main(["solve", "--in", str(inst), "--out", str(solved)]) == 0
        triples = json.loads(solved.read_text())
        assert len(triples) == 2
        capsys.readouterr()  # drop the generate/solve progress lines
        assert main(["analyze", "--in", str(inst), "--cactus", str(solved)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--family", "wheel", "--n", "6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 6

    def test_oracle_command(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        capsys.readouterr()
        for extra in ([], ["--all-triangles"]):
            assert main(["oracle", "--in", str(inst), *extra]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["optimum"] == 2
            assert data["exhausted"] is True
            assert len(data["witness"]) == 2
            assert 1 <= data["nodes_explored"] <= 1 + 8

    def test_oracle_guard_exit_code(self, tmp_path, capsys):
        inst = self._generate(
            tmp_path, "--family", "random_maximal_planar", "--n", "30", "--seed", "7"
        )
        assert main(["oracle", "--in", str(inst)]) == 4
        err = capsys.readouterr().err
        assert "oracle refused" in err
        assert "--budget" in err and "beta = 14" in err

    def test_oracle_witness_that_fails_its_check_exits_3(self, tmp_path, capsys, monkeypatch):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        monkeypatch.setattr(oracle, "triples_form_cactus", lambda triples: False)
        assert main(["oracle", "--in", str(inst)]) == 3
        assert "identity violation" in capsys.readouterr().err

    def test_oracle_budget_exit_code(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "icosahedron")
        assert main(["oracle", "--in", str(inst), "--budget", "10"]) == 4
        assert "oracle refused" in capsys.readouterr().err

    def test_analyze_flags_non_optimum(self, tmp_path, capsys, heavy_shape_bad):
        inst = tmp_path / "bad.json"
        dump_instance(heavy_shape_bad.g, inst)
        cac = tmp_path / "bad_cactus.json"
        cac.write_text(json.dumps([list(t) for t in heavy_shape_bad.triples]))
        assert main(["analyze", "--in", str(inst), "--cactus", str(cac)]) == 2
        err = capsys.readouterr().err
        assert "not locally optimal" in err
        assert "witness move" in err
        # --no-verify trusts the caller, so no witness is available
        assert main(
            ["analyze", "--in", str(inst), "--cactus", str(cac), "--no-verify"]
        ) == 2
        assert "witness move" not in capsys.readouterr().err

    def _assert_analyze_rejects(self, tmp_path, capsys, inst, triples):
        cac = tmp_path / "short_cactus.json"
        cac.write_text(json.dumps(triples))
        capsys.readouterr()
        assert main(["analyze", "--in", str(inst), "--cactus", str(cac)]) == 2
        err = capsys.readouterr().err
        assert "not locally optimal" in err
        assert "witness move" in err

    def test_analyze_rejects_the_empty_cactus(self, tmp_path, capsys):
        # No heavy triangle, so no shape check fires: only the verifier's
        # own verdict can reject this input.
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        self._assert_analyze_rejects(tmp_path, capsys, inst, [])

    @pytest.mark.parametrize("seed", range(10))
    def test_analyze_rejects_an_optimum_minus_a_triangle(self, tmp_path, capsys, seed):
        g = build_instance(GeneratorSpec("random_maximal_planar", n=20, seed=seed))
        c, _ = pipeline.local_search(g, SearchConfig(t=2))
        c.remove_triangle(c.triangle_ids[len(c) // 2])
        inst = tmp_path / "inst.json"
        dump_instance(g, inst)
        triples = [list(g.triangles[t].vertices) for t in c.triangle_ids]
        self._assert_analyze_rejects(tmp_path, capsys, inst, triples)

    def test_mps_and_mpt_commands(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        capsys.readouterr()
        assert main(["mps", "--in", str(inst)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["edge_count"] == 7
        assert data["ratio_vs_triangulation"] == "7/12"
        assert main(["mpt", "--in", str(inst)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["output_triangles"] == 2
        assert data["ratio"] == "2/7"

    def test_mpt_on_the_empty_instance(self, tmp_path, capsys):
        inst = tmp_path / "empty.json"
        inst.write_text('{"n": 0, "rotations": [], "outer": null}')
        assert main(["mpt", "--in", str(inst)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["output_triangles"] == 0 and data["cactus"] == []

    def test_unknown_triangle_message_is_unquoted(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        cac = tmp_path / "cactus.json"
        cac.write_text("[[0, 1, 99]]")
        capsys.readouterr()
        assert main(["analyze", "--in", str(inst), "--cactus", str(cac)]) == 4
        assert capsys.readouterr().err == (
            "error: [0, 1, 99] is not a candidate triangle of the instance\n"
        )

    def test_bench_smoke(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        side = tmp_path / "reports.json"
        code = main(
            [
                "bench",
                "--limit",
                "6",
                "--csv",
                str(csv_path),
                "--sidecar",
                str(side),
            ]
        )
        assert code == 0
        assert "6 instances, 0 failures" in capsys.readouterr().out
        assert csv_path.exists() and side.exists()

    def test_bench_rejects_negative_counts(self, tmp_path, capsys):
        # Negative slicing would run a silently shortened corpus.
        csv_path = tmp_path / "rows.csv"
        for argv in (
            ["--rmp-count", "2", "--limit", "-3"],
            ["--rmp-count", "-4"],
        ):
            capsys.readouterr()
            assert main(["bench", *argv, "--csv", str(csv_path)]) == 4
            assert argv[-2] in capsys.readouterr().err
        assert not csv_path.exists()

    def test_bench_rejects_negative_thread_counts(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        argv = ["bench", "--limit", "1", "--csv", str(csv_path)]
        assert main([*argv, "--threads", "-3"]) == 4
        assert "--threads" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_io_failures_exit_4(self, tmp_path, capsys):
        assert main(["solve", "--in", str(tmp_path / "missing.json")]) == 4
        bad = tmp_path / "broken.json"
        bad.write_text("{{{{")
        assert main(["solve", "--in", str(bad)]) == 4
        assert main(["analyze", "--in", str(bad), "--cactus", str(bad)]) == 4
        capsys.readouterr()
        # Undecodable bytes and nesting past the recursion limit are bad
        # input too, named by path, not a traceback.
        octa = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff\xfe")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        for path in (not_utf8, deep):
            for argv in (
                ["solve", "--in", str(path)],
                ["oracle", "--in", str(path)],
                ["analyze", "--in", str(octa), "--cactus", str(path)],
            ):
                capsys.readouterr()
                assert main(argv) == 4
                assert str(path) in capsys.readouterr().err

    def test_boolean_vertex_ids_are_rejected(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        cac = tmp_path / "bool_cactus.json"
        # (0, 1, 4) is a face; true must not stand in for vertex 1
        cac.write_text("[[0, true, 4]]")
        assert main(["analyze", "--in", str(inst), "--cactus", str(cac)]) == 4
        assert "[0, True, 4] is not a candidate triangle" in capsys.readouterr().err

    def test_malformed_cactus_entries_exit_4(self, tmp_path, capsys):
        # The library checks each entry, so the command line reports it
        # as bad input, not a traceback.
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        cac = tmp_path / "cactus.json"
        # A bool vertex has its own test above.
        for text, shown in (("[5]", "5"), ("[null]", "None"), ("[[0, 1]]", "[0, 1]"),
                            ('["abc"]', "'abc'")):
            cac.write_text(text)
            capsys.readouterr()
            assert main(["analyze", "--in", str(inst), "--cactus", str(cac)]) == 4
            assert capsys.readouterr().err == (
                f"error: {shown} is not a candidate triangle of the instance\n"
            )

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "hypercube"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_flag_prefixes_are_usage_errors(self, tmp_path, capsys):
        # `--t` would otherwise expand to bench's `--threads`.
        csv_path = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--t", "1", "--limit", "0", "--csv", str(csv_path)])
        assert exc.value.code == 2
        assert "--t" in capsys.readouterr().err
        assert not csv_path.exists()
        assert main(["bench", "--threads", "1", "--limit", "0", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
