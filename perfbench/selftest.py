"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

They run the smoke configuration (tiny instance sets, one second), so they
take seconds, and they stay out of the program's own test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from cactus_forge import GeneratorSpec, build_instance, local_search  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_unit_and_direction(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    printed = [line.split() for line in done.stdout.splitlines()[:-1]]
    for m in named:
        assert m["better"] in ("higher", "lower")
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert [m["name"], m["unit"]] in [[words[0], words[-1]] for words in printed if words]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupting(workload, rewrite):
    """Run one smoke pass while rewrite(argv) edits the CLI's output files."""
    real = workloads.cli.main

    def main(argv):
        code = real(argv)
        rewrite(argv)
        return code

    workloads.cli.main = main
    try:
        workload.setup()
        return workload.run_pass()
    finally:
        workloads.cli.main = real


def _edit_json(path, edit):
    data = json.loads(Path(path).read_text())
    Path(path).write_text(json.dumps(edit(data)))


def _out(argv, flag="--out"):
    return argv[argv.index(flag) + 1]


def test_dropped_triangle_trips_dense_checks(tmp_path):
    def drop(argv):
        if argv[0] == "solve":
            _edit_json(_out(argv), lambda triples: triples[:-1])

    res = _corrupting(workloads.DenseSolve(1, str(tmp_path), Tracer(False), smoke=True), drop)
    assert len(res.failures) == res.attempted
    assert all(any("trace claims delta" in m for m in ms) for ms in res.failures.values())


def test_delta_above_ceiling_trips_dense_checks(tmp_path):
    def inflate(argv):
        if argv[0] == "solve":
            _edit_json(_out(argv, "--trace"), lambda t: {**t, "final_delta": 10**6})

    res = _corrupting(workloads.DenseSolve(1, str(tmp_path), Tracer(False), smoke=True), inflate)
    assert len(res.failures) == res.attempted
    assert all(any("exceeds the ceiling" in m for m in ms) for ms in res.failures.values())


def test_check_functions_on_a_real_and_a_corrupted_cactus():
    g = build_instance(GeneratorSpec("random_maximal_planar", n=20, seed=4))
    c, trace = local_search(g)
    triples = [list(g.triangles[t].vertices) for t in c.triangle_ids]
    assert checks.check_cactus(g, triples) == []
    assert checks.check_counts(g.n, g.comp_count, g.f3_internal, c.delta, trace.initial_delta) == []
    assert checks.check_counts(g.n, g.comp_count, g.f3_internal, checks.ceiling(g.n, 1) + 1)
    taken = {tuple(t) for t in triples}
    clash = next(list(t.vertices) for t in g.triangles if t.vertices not in taken)
    assert checks.check_cactus(g, triples + [clash])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_the_instances(workload, tmp_path):
    def digest(seed):
        cls = workloads.WORKLOADS[workload]
        return cls(seed, str(tmp_path), Tracer(False), smoke=True).setup()

    assert digest(0) == digest(0)
    assert digest(0) != digest(1)


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [x * 1.5 for x in base], "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, [x * 0.5 for x in base], "higher", 0.1)[0] == "worse"
    assert compare.verdict(base, [x * 1.01 for x in base], "lower", 0.1)[0] == "unchanged"
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(wide, wide[::-1], "lower", 0.1)[0] == "unresolved"
    # A wide old spread does not hide a regression past the bound.
    assert compare.verdict(wide, [x * 2 for x in wide], "lower", 0.1)[0] == "worse"
    assert compare.verdict(wide, [x / 2 for x in wide], "higher", 0.1)[0] == "worse"


def test_each_call_counts_at_its_best_pass():
    import run

    passes = [workloads.PassResult(calls={"a": (1.0, 2.0, 0.5), "b": (4.0, 1.0, 0.0)}),
              workloads.PassResult(calls={"a": (2.0, 1.0, 1.5), "b": (3.0, 3.0, 0.0)})]
    assert run._best(passes) == {"a": (1.0, 1.0, 0.5), "b": (3.0, 1.0, 0.0)}
    assert run._throughput(passes) == 2 / 6.5
    assert run._end_to_end(passes, 0.1)["solve_p50_s"] == 2.0  # median of 1 and 3
    for p in passes:
        p.sweep = True  # the rows of one call: its latency is their sum
    assert run._end_to_end(passes, 0.1)["pipeline_p50_s"] == 6.5


def test_tracing_refuses_a_missing_target(monkeypatch):
    import tracing

    monkeypatch.delattr(workloads.pipeline, "exact_beta_faces")
    with pytest.raises(RuntimeError, match="exact_beta_faces"):
        tracing.install(Tracer(True))


def test_unrecorded_spans_are_reported(tmp_path):
    tracer = Tracer(True)
    workload = workloads.DenseSolve(1, str(tmp_path), tracer, smoke=True)
    workload.setup()
    tracer.phase = "pass"
    workload.run_pass()  # untraced program: only the benchmark's own spans
    missing = tracer.missing(workload.spans)
    assert "local_search.ls2" in missing and "cli.solve" not in missing


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "dense_solve", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
