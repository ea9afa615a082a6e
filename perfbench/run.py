"""cactus-forge benchmark: one workload per run, or a baseline, or a comparison.

    python3 perfbench/run.py --workload dense_solve --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --baseline perfbench/baseline.json
    python3 perfbench/run.py --compare old.json new.json

A run imports the program from ``src/`` of the checkout it sits in, builds
the workload's inputs from the seed, runs whole passes over them until
``--seconds`` would be exceeded (always at least one), checks every
output, prints each metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones named in BENCHMARK.json, with ``--trace 1``
the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(10))  # the seeds of a baseline; compare pairs runs by seed


def _import_program() -> float:
    """Import cactus_forge from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "cactus_forge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/cactus_forge is missing")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import cactus_forge  # noqa: F401  (the import is what is timed)
    import cactus_forge.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    found = Path(cactus_forge.__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit(f"perfbench: imported cactus_forge from {found}, not from {src}")
    return elapsed


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one run


def _best(passes) -> dict[str, tuple[float, float, float]]:
    """Per instance and step, the best (lowest) time over the passes.

    The host's speed wanders by tens of percent, in spells of seconds; the
    fastest of several passes is far steadier from run to run than a mean
    or median, and the shorter the call the likelier it met a fast spell,
    so each step counts at its own best."""
    best: dict[str, tuple[float, float, float]] = {}
    for p in passes:
        for key, times in p.calls.items():
            best[key] = tuple(map(min, best[key], times)) if key in best else times
    return best


def _throughput(passes) -> float:
    """Instances per second of timed work, each instance at its best pass."""
    best = _best(passes)
    total = sum(sum(steps) for steps in best.values())
    return len(best) / total if total > 0 else 0.0


def _end_to_end(passes, setup_s: float) -> dict:
    best = list(_best(passes).values())

    def p50(times):
        """The median instance; the rows of a sweep make one call, their sum."""
        if not times:
            return 0.0
        return sum(times) if passes[0].sweep else statistics.median(times)

    return {
        "instances_per_s": _throughput(passes),
        "solve_p50_s": p50([steps[0] for steps in best]),
        "certify_p50_s": p50([steps[1] for steps in best]),
        "pipeline_p50_s": p50([sum(steps) for steps in best]),
        "triangles_found": passes[0].counters.get("triangles_found", 0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _bucket(n: int) -> str:
    if n > 64:
        raise ValueError(f"no n-split per-layer metric holds n = {n}")
    return "n32" if n <= 32 else "n64"


def _per_layer(tracer, passes, probes, wrapper_cost: float) -> dict:
    """Fold the spans into per-layer totals: per measured pass, and once for
    the probe sweep."""
    k = len(passes)
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    scale = 1.0

    def add(name, value):
        out[name] = out.get(name, 0) + value * scale

    spans = max_row_nodes = 0
    setup_build = 0.0
    searched_rows, oracle_rows = set(), set()
    for sp, own in zip(tracer.spans, selfs):
        name, info = sp.name, sp.info
        if sp.phase == "setup":
            setup_build += sp.duration if name == "generators.build" else 0.0
            continue
        scale = 1.0 if sp.phase == "probe" else 1.0 / k
        spans += sp.phase == "pass"
        if name == "generators.build":
            add("generators.build_s", sp.duration)
        elif name == "plane_graph.parse":
            add("plane_graph.parse_s", own)
        elif name == "cactus.remove_probe":
            add("cactus.remove_probe_s", sp.duration)
        elif name == "local_search.greedy":
            add("local_search.greedy_s", sp.duration)
        elif name in ("local_search.ls1", "local_search.ls2"):
            tag = name.split(".")[1]
            add(f"local_search.{tag}_s", own)
            add(f"local_search.{tag}_examined", info.get("examined", 0))
            searched_rows.add(sp.instance)
            if tag == "ls2":
                add(f"local_search.ls2_s.{_bucket(info['n'])}", own)
                add("local_search.ls2_moves", info["moves"])
                add("local_search.at_ceiling", info["delta"] == info["ceiling"])
                add("local_search.ceiling_gap", info["ceiling"] - info["delta"])
        elif name == "local_search.final_scan":
            add("local_search.final_scan_s", sp.duration)
        elif name == "local_search.verify":
            add("local_search.verify_s", sp.duration)
            add(f"local_search.verify_s.{_bucket(info['n'])}", sp.duration)
        elif name == "oracle.exact":
            add("oracle.s", sp.duration)
            oracle_rows.add(sp.instance)
            add("oracle.nodes", info.get("nodes", 0))
            max_row_nodes = max(max_row_nodes, info.get("nodes", 0))
            add("oracle.exact", info.get("exact", False))
            add("oracle.budget_hits", info.get("budget_hit", False))
        elif name == "analyzer.analyze":
            add("analyzer.s", own)
            add("analyzer.components", info.get("components", 0))
        elif name == "pipeline.verify_corpus":
            add("pipeline.sweep_rest_s", own)
        elif name.startswith("cli."):
            add("cli.overhead_s", own)
    out["oracle.max_row_nodes"] = max_row_nodes
    out["generators.build_s"] = out.get("generators.build_s", 0.0) + setup_build
    if any(sp.name == "pipeline.verify_corpus" for sp in tracer.spans):
        # A sweep row that was searched but never reached the oracle was
        # skipped by its guard (a budget hit still leaves an oracle span).
        out["oracle.guard_skips"] = len(searched_rows - oracle_rows)
    out["cactus.remove_probe_calls"] = probes.counters.get("remove_probe_calls", 0)
    out["trace.instances_per_s"] = _throughput(passes)
    out["trace.overhead_s"] = spans * wrapper_cost / k
    return out


def run_once(args) -> int:
    import_s = _import_program()
    import tracing
    from workloads import WORKLOADS

    spec = _spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    # The program's default worker count is what gets measured.
    os.environ.pop("CACTUS_FORGE_THREADS", None)

    tracer = tracing.Tracer(False)
    undo = tracing.install(tracer) if args.trace else (lambda: None)
    workdir = ROOT / ".perfbench-out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir), tracer, smoke=args.smoke)
        setup_times, input_digests, passes = [], set(), []
        start = time.perf_counter()
        while True:
            # A set-up before every pass: set-ups spread over the run give a
            # median that moves less with the host's speed than a burst would.
            tracer.enabled = bool(args.trace) and not passes
            tracer.phase = tracer.instance = "setup"
            began = time.perf_counter()
            input_digests.add(workload.setup())
            setup_times.append(time.perf_counter() - began)
            tracer.enabled = bool(args.trace)
            tracer.phase = "pass"
            passes.append(workload.run_pass())
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        if len(input_digests) != 1:
            problems.append("set-up built different inputs on different repeats")
        tracer.phase = "probe"
        probes = workload.probe_pass() if args.trace else None
    finally:
        undo()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        for name in tracer.missing(workload.spans):
            problems.append(f"the traced run recorded no {name} span")
    if any(p.digest != passes[0].digest for p in passes):
        problems.append("outputs changed between passes over the same inputs")
    checked = passes + [probes] if probes else passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in checked)
    correct = failed == 0 and not problems
    setup_s = import_s + statistics.median(setup_times)
    if args.trace:
        values = _per_layer(tracer, passes, probes, tracing.wrapper_cost_s())
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(passes, setup_s)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        if m["unit"] == "count" and abs(value - round(value)) < 1e-6:
            value = round(value)  # a per-pass mean of equal counts
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    counters = dict(passes[0].counters, **(probes.counters if probes else {}))
    extra = {
        "failed_share": failed / attempted,
        "exact_share": counters.get("exact_rows", 0) / passes[0].attempted,
    }
    # Each latency is a median over the instances (or a sweep's sum over
    # them), each instance at its best pass.
    samples = {"instances": len(_best(passes)), "passes": len(passes), "setup_s": len(setup_times)}
    for name, item in metrics.items():
        print(f"{name:<34} {item['value']:>14.6g} {item['unit']}")
    for name, value in extra.items():
        print(f"{name:<34} {value:>14.6g} share")
    print(f"{len(passes)} pass(es); samples {samples}")
    print(f"output digest {passes[0].digest[:16]}  input digest {min(input_digests)[:16]}")
    for label, messages in [(lbl, m) for p in checked for lbl, m in p.failures.items()][:20]:
        print(f"FAILED {label}: {'; '.join(messages)}", file=sys.stderr)
    for message in problems:
        print(f"FAILED: {message}", file=sys.stderr)

    if args.trace:
        tracer.dump(ROOT / ".perfbench-out" / f"spans-{args.workload}-s{args.seed}.json")
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "extra": extra,
            "samples": samples,
            "passes": len(passes),
            "counters": counters,
            "output_digest": passes[0].digest,
            "input_digest": min(input_digests),
            "setup_samples_s": setup_times,
            "import_s": import_s,
            "failures": {lbl: m for p in checked for lbl, m in p.failures.items()},
            "problems": problems,
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# baseline: every workload, several seeds, one process at a time


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _plan(workloads) -> list[tuple[str, int, int]]:
    """(workload, seed, trace) in run order: each seed's untraced runs of every
    workload together, so host speed drift is shared by the workloads; the
    traced runs sit next to the untraced run of the same seed, after it on
    the first traced seed and before it on the second."""
    plan = []
    for seed in SEEDS:
        for name in workloads:
            if seed == SEEDS[0]:
                plan += [(name, seed, 0), (name, seed, 1)]
            elif seed == SEEDS[1]:
                plan += [(name, seed, 1), (name, seed, 0)]
            else:
                plan.append((name, seed, 0))
    return plan


def baseline(args) -> int:
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    runs = []
    for name, seed, trace in _plan([w["name"] for w in spec["workloads"]]):
        record_path = scratch / f"record-{name}-{seed}-{trace}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--record", str(record_path)]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: {name} seed {seed} exited {done.returncode}")
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        record_path.unlink()
        record["wall_s"] = wall
        runs.append(record)
        print(f"{name} seed={seed} trace={trace} correct={record['correct']} wall={wall:.1f}s",
              flush=True)
    import compare

    result = {
        "meta": {
            "commit": _commit(),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "seeds": list(SEEDS),
            "seconds": seconds,
        },
        "runs": runs,
    }
    result["summary"] = compare.summarise(result, spec)
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    compare.print_summary(result["summary"])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run's full record (JSON) here")
    parser.add_argument("--smoke", action="store_true", help="tiny instance sets, for the self-test")
    parser.add_argument("--baseline", metavar="OUT", help="run every workload over seeds 0-9 into OUT")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two baselines")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, _spec())
    if args.baseline:
        return baseline(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
