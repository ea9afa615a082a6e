"""End-to-end pipelines, the corpus harness, and the command line."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cactus_forge import (
    GeneratorSpec,
    SearchConfig,
    acceptance_corpus,
    build_instance,
    mps_pipeline,
    mpt_pipeline,
    verify_corpus,
)
from cactus_forge import oracle, pipeline
from cactus_forge.cli import main
from cactus_forge.pipeline import (
    CSV_COLUMNS,
    report_to_dict,
    worker_count,
    write_csv,
    write_sidecar,
)


@pytest.fixture(scope="module")
def octa():
    return build_instance(GeneratorSpec("platonic", name="octahedron"))


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


class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("CACTUS_FORGE_THREADS", "7")
        assert worker_count(3) == 3
        assert worker_count(0) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CACTUS_FORGE_THREADS", "5")
        assert worker_count() == 5
        monkeypatch.delenv("CACTUS_FORGE_THREADS")
        assert worker_count() == 1

    def test_malformed_env_is_an_error(self, monkeypatch):
        from cactus_forge import CactusForgeError

        # a typo'd env var should fail loudly, not silently serialize
        monkeypatch.setenv("CACTUS_FORGE_THREADS", "definitely-not-a-number")
        with pytest.raises(CactusForgeError):
            worker_count()


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

    def test_import_does_not_load_multiprocessing(self):
        probe = "import sys, cactus_forge.cli; print('multiprocessing' in sys.modules)"
        src = str(Path(pipeline.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "False"

    def test_sidecar_roundtrips(self, tmp_path):
        res = verify_corpus(acceptance_corpus(rmp_count=3)[:3])
        path = tmp_path / "reports.json"
        write_sidecar(res.reports, path)
        data = json.loads(path.read_text())
        assert len(data) == 3
        assert all(d["ok"] for d in data)

    def test_sidecar_times_the_verifier_inside_analyze(self):
        res = verify_corpus(acceptance_corpus(rmp_count=6)[2:6])
        for row, side in zip(res.rows, res.reports):
            wall = side["wall"]
            assert 0 < wall["verify_s"] <= wall["analyze_s"]
            assert wall["analyze_s"] == round(row.wall_analyze_s, 6)

    def test_verifier_failure_keeps_its_row_text(self, monkeypatch):
        # Hand the harness a greedy cactus as the 2-swap result on a row
        # where greedy is not 2-swap optimal.
        spec = GeneratorSpec("random_maximal_planar", n=20, seed=4)
        search = pipeline.local_search

        def weak(g, cfg):
            c, trace = search(g, cfg)
            return (pipeline.greedy_initial(g, cfg.seed) if cfg.t == 2 else c), trace

        monkeypatch.setattr(pipeline, "local_search", weak)
        res = verify_corpus([spec])
        assert res.rows[0].failures == ("analyzer: 2-swap result fails the verifier",)
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
        corpus = [
            GeneratorSpec("random_maximal_planar", n=10, seed=0),
            GeneratorSpec("random_maximal_planar", n=30, seed=7),
            GeneratorSpec("wheel", n=2),
        ]
        res = verify_corpus(corpus)
        exact, guard, error = res.reports
        assert exact["oracle_status"] == "exact" and exact["oracle_nodes"] > 0
        assert res.rows[0].beta_faces is not None
        assert guard["oracle_status"] == "guard" and guard["oracle_nodes"] == 0
        assert error["oracle_status"] == "error" and error["oracle_nodes"] == 0
        assert res.rows[1].beta_faces is None and res.rows[2].beta_faces is None

        monkeypatch.setattr(
            pipeline, "exact_beta_faces", lambda g: oracle.exact_beta_faces(g, budget=5)
        )
        (budget,) = verify_corpus(corpus[:1]).reports
        assert budget["oracle_status"] == "budget" and budget["oracle_nodes"] == 6

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
        assert main(["oracle", "--in", str(inst)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimum"] == 2
        assert data["exhausted"] is True

    def test_oracle_guard_exit_code(self, tmp_path, capsys):
        inst = self._generate(
            tmp_path, "--family", "random_maximal_planar", "--n", "30", "--seed", "7"
        )
        assert main(["oracle", "--in", str(inst)]) == 4
        assert "oracle refused" in capsys.readouterr().err

    def test_oracle_budget_exit_code(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "icosahedron")
        assert main(["oracle", "--in", str(inst), "--budget", "10"]) == 4
        assert "oracle refused" in capsys.readouterr().err

    def test_analyze_flags_non_optimum(self, tmp_path, capsys, heavy_shape_bad):
        from cactus_forge.plane_graph import dump_instance

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

    def test_io_failures_exit_4(self, tmp_path, capsys):
        assert main(["solve", "--in", str(tmp_path / "missing.json")]) == 4
        bad = tmp_path / "broken.json"
        bad.write_text("{{{{")
        assert main(["solve", "--in", str(bad)]) == 4
        assert main(["analyze", "--in", str(bad), "--cactus", str(bad)]) == 4
        capsys.readouterr()

    def test_boolean_vertex_ids_are_rejected(self, tmp_path, capsys):
        inst = self._generate(tmp_path, "--family", "platonic", "--name", "octahedron")
        cac = tmp_path / "bool_cactus.json"
        # (0, 1, 4) is a face; true must not stand in for vertex 1
        cac.write_text("[[0, true, 4]]")
        assert main(["analyze", "--in", str(inst), "--cactus", str(cac)]) == 4
        assert "bad triple" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "hypercube"])
        assert exc.value.code == 2
        capsys.readouterr()
