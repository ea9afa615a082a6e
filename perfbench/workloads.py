"""The benchmark's workloads: seeded inputs, one measured pass, its checks.

Each workload builds a fixed instance set from the seed during set-up and
then runs passes over it.  A pass makes the same calls a user makes (one
``verify_corpus`` sweep, or in-process ``cli.main`` calls on JSON files),
times each call, and checks every output afterwards, outside the timed
region.  A traced run adds one probe sweep after its passes, for the
layers the calls do not reach on their own (1-swap search, final no-move
scan, triangle-removal probe); it is not timed as part of any call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field

from cactus_forge import cli, pipeline
from cactus_forge.generators import GeneratorSpec, build
from cactus_forge.local_search import SearchConfig, find_improving_swap
from cactus_forge.pipeline import acceptance_corpus, verify_corpus, write_csv
from cactus_forge.plane_graph import dump_instance, load_instance

import checks

RMP = "random_maximal_planar"


@dataclass
class Instance:
    label: str
    graph: object  # the PlaneGraph the program sees
    path: str | None = None  # its JSON file, for the CLI workloads


@dataclass
class PassResult:
    """What one pass over the instance set produced."""

    # Per instance, in seconds: (search step, checking step, any other step).
    calls: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    sweep: bool = False  # the instances are the rows of one call
    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)  # canonical, for the digest
    counters: dict[str, int] = field(default_factory=dict)

    def fail(self, label: str, messages) -> None:
        if messages:
            self.failures.setdefault(label, []).extend(messages)

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def _escaped(exc: BaseException) -> list[str]:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return [f"escaped {type(exc).__name__} at {where.name}:{where.lineno}: {exc}"]


class Workload:
    """Seeded instance set plus a measured pass; subclasses fill in both."""

    name = ""
    spans: tuple[str, ...] = ()  # span names a traced pass must record

    def __init__(self, seed: int, workdir: str, tracer, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.smoke = smoke
        self.instances: list[Instance] = []
        self.final: dict[str, list | None] = {}  # last pass's cactus per instance

    def probe_pass(self) -> PassResult:
        """The layer probes over the last pass's results; traced runs only."""
        res = PassResult()
        for inst in self.instances:
            self.tracer.instance = inst.label
            try:
                self._probe(res, inst, self.final.get(inst.label))
            except Exception as exc:  # count it and go on with the next instance
                res.fail(inst.label, _escaped(exc))
        return res

    def setup(self) -> str:
        """Generate (and serialise) the inputs; returns a digest of them."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def _file(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _build(self, spec: GeneratorSpec):
        with self.tracer.span("generators.build"):
            return build(spec)

    def _sized_specs(self) -> list[GeneratorSpec]:
        """count instances per size n, generator seeds offset by the seed."""
        sizes = self.smoke_sizes if self.smoke else self.sizes
        return [GeneratorSpec(RMP, n=n, seed=count * self.seed + k)
                for n, count in sizes.items() for k in range(count)]

    def _serialise(self, label: str, g, blob) -> Instance:
        """Write g as a JSON instance; the instance holds what reading it back gives."""
        path = self._file(f"{label.replace(':', '_')}.json")
        dump_instance(g, path)
        with open(path, "rb") as fh:
            blob.update(fh.read())
        return Instance(label, load_instance(path), path)

    def _cli(self, name: str, argv: list[str]) -> tuple[int, float]:
        """One in-process CLI call, its stdout discarded; returns (code, seconds)."""
        sink = io.StringIO()
        start = time.perf_counter()
        with self.tracer.span(name), contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        return code, time.perf_counter() - start

    @staticmethod
    def _clear(*paths) -> None:
        """Remove a previous call's output files, so none is read twice."""
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    @staticmethod
    def _load(path):
        """A call's JSON output, or None when it wrote none."""
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def _probe(self, res: PassResult, inst: Instance, triples) -> None:
        """Layer probes on a finished instance.

        The 2-swap cactus the traced search returned must match the output
        triples, re-validate, and survive the final no-move scan."""
        g = inst.graph
        final = [s for s in self.tracer.searches if s[0] == inst.label and s[2] == 2]
        if not final:
            res.fail(inst.label, ["traced run saw no 2-swap search"])
            return
        _, _, _, c, trace = final[-1]
        found = [list(g.triangles[t].vertices) for t in c.triangle_ids]
        if triples is not None and found != [list(t) for t in triples]:
            res.fail(inst.label, ["traced search result differs from the output cactus"])
        res.fail(inst.label, checks.check_cactus(g, found))
        if not any(s[0] == inst.label and s[2] == 1 for s in self.tracer.searches):
            with self.tracer.span("probe"):
                # Looked up at call time, so the traced wrapper records it.
                c1, _ = pipeline.local_search(g, SearchConfig(t=1))
            res.fail(inst.label, checks.check_counts(
                g.n, g.comp_count, g.f3_internal, c.delta, trace.initial_delta, c1.delta))
        with self.tracer.span("probe"):
            with self.tracer.span("local_search.final_scan"):
                move = find_improving_swap(g, c, 2)
            with self.tracer.span("cactus.remove_probe"):
                for tid in c.triangle_ids:
                    c.copy().remove_triangle(tid)
        res.add("remove_probe_calls", c.delta)
        if move is not None:
            res.fail(inst.label, [f"final scan found an improving move {move}"])


class CorpusSweep(Workload):
    """One verify_corpus call over an acceptance-style corpus.

    Random maximal planar graphs with n cycling over 4..17, three cycles per
    pass, plus one row each at n = 23..26 past the oracle's 40-candidate
    guard, plus the wheel, fan, platonic and grid families.  The
    row of size n in cycle c has generator seed 61 * c + n - 4, as in the
    acceptance corpus, and seed s owns cycles 3s..3s+2, so seed 0 draws its
    rows from the acceptance corpus itself.  The exact oracle is most of a
    pass, and most of the oracle is the n = 16 and 17 rows.

    The cycle stops at n = 17 so that a pass takes about 5 s and every row
    has a best of several passes.  One row at n = 20..22, up to the guard,
    takes 10-40 s of oracle time on its own, and the per-node speed of the
    oracle drifts by up to a factor of 1.5 between minutes on a shared
    host, so a run of one such sweep cannot be compared with the next.
    """

    name = "corpus_sweep"
    spans = ("pipeline.verify_corpus", "generators.build", "local_search.greedy",
             "local_search.ls1", "local_search.ls2", "local_search.verify",
             "analyzer.analyze", "oracle.exact", "local_search.final_scan", "cactus.remove_probe")
    cycles, sizes, past_guard = 3, [*range(4, 18)], [23, 24, 25, 26]
    smoke_cycles, smoke_sizes, smoke_past_guard = 1, [*range(4, 13)], [25]

    def setup(self) -> str:
        if self.smoke:
            cycles, sizes, past = self.smoke_cycles, self.smoke_sizes, self.smoke_past_guard
        else:
            cycles, sizes, past = self.cycles, self.sizes, self.past_guard
        first = cycles * self.seed
        rows = [(n, first + j) for j in range(cycles) for n in sizes] + [(n, first) for n in past]
        self.specs = [
            GeneratorSpec(RMP, n=n, seed=61 * c + n - 4) for n, c in rows
        ] + list(acceptance_corpus(0))
        self.instances = [Instance(spec.label(), self._build(spec)) for spec in self.specs]
        return hashlib.sha256(
            json.dumps([(i.label, i.graph.rotations) for i in self.instances]).encode()
        ).hexdigest()

    def run_pass(self) -> PassResult:
        res = PassResult(attempted=len(self.specs), sweep=True)
        self.tracer.searches.clear()
        self.tracer.instance = "sweep"
        try:
            with self.tracer.span("pipeline.verify_corpus"):
                sweep = verify_corpus(self.specs, SearchConfig())
        except Exception as exc:  # the whole pass failed; later passes still run
            for inst in self.instances:
                res.fail(inst.label, _escaped(exc))
            return res

        csv_path = self._file("corpus.csv")
        write_csv(sweep.rows, csv_path)
        with open(csv_path, "rb") as fh:
            res.outputs.append(fh.read().decode())
        for inst, row in zip(self.instances, sweep.rows):
            g = inst.graph
            # verify_corpus times each row's steps itself.
            res.calls[inst.label] = (row.wall_solve_s, row.wall_analyze_s, row.wall_oracle_s)
            if row.instance != inst.label or row.n != g.n or row.f3_all != g.f3_all:
                res.fail(inst.label, [f"row {row.instance} does not match its instance"])
            res.fail(inst.label, [f"harness: {m}" for m in row.failures])
            res.fail(inst.label, checks.check_counts(
                g.n, g.comp_count, g.f3_internal,
                row.delta_2swap, row.delta_greedy, row.delta_1swap, row.beta_faces))
            res.add("triangles_found", row.delta_2swap or 0)
            res.add("exact_rows", row.beta_faces is not None)
        return res


class DenseSolve(Workload):
    """solve then analyze, through cli.main, on random maximal planar graphs.

    No oracle runs here (solve and analyze never call it): the 2-swap
    search, its final no-move scan and the unpruned verifier inside analyze
    do almost all the work.  The n = 32 rows show how that work grows with n.
    A pass takes 3-6 s, so every call has a best of several passes in a
    run; the work of single instances varies by a fifth between generator
    seeds, so a pass holds many of them.  The largest graphs have n = 48:
    with n = 64 rows (0.3-0.45 s per solve + analyze) the throughput of ten
    seeds spread by 0.30 (quartile distance over median) on a shared host.
    """

    name = "dense_solve"
    spans = ("cli.solve", "cli.analyze", "plane_graph.parse", "cactus.from_triples",
             "local_search.greedy", "local_search.ls2", "local_search.verify",
             "analyzer.analyze", "local_search.final_scan", "cactus.remove_probe")
    sizes = {32: 16, 48: 20}
    smoke_sizes = {16: 2, 24: 1}

    def setup(self) -> str:
        blob = hashlib.sha256()
        self.instances = [self._serialise(spec.label(), self._build(spec), blob)
                          for spec in self._sized_specs()]
        return blob.hexdigest()

    def run_pass(self) -> PassResult:
        res = PassResult(attempted=len(self.instances))
        self.tracer.searches.clear()
        cactus, trace, report = (self._file(x) for x in ("cactus.json", "trace.json", "report.json"))
        for inst in self.instances:
            self.tracer.instance = inst.label
            g = inst.graph
            self._clear(cactus, trace, report)
            try:
                rc_solve, t_solve = self._cli(
                    "cli.solve", ["solve", "--in", inst.path, "--out", cactus, "--trace", trace])
                rc_analyze, t_analyze = self._cli(
                    "cli.analyze", ["analyze", "--in", inst.path, "--cactus", cactus, "--out", report])
                res.calls[inst.label] = (t_solve, t_analyze, 0.0)
                triples, search, verdict = map(self._load, (cactus, trace, report))
                problems = [f"{cmd} exited {rc}" for cmd, rc in
                            (("solve", rc_solve), ("analyze", rc_analyze)) if rc != 0]
                if not (verdict and verdict["ok"] and verdict["verified_optimal"] and verdict["maximal"]):
                    problems.append("analyze did not certify the cactus")
                if triples is None or search is None:
                    res.fail(inst.label, problems + ["solve wrote no cactus or trace"])
                    continue
                if search["final_delta"] != len(triples):
                    problems.append(f"trace claims delta {search['final_delta']}, "
                                    f"cactus holds {len(triples)}")
                problems += checks.check_cactus(g, triples)
                problems += checks.check_counts(
                    g.n, g.comp_count, g.f3_internal, search["final_delta"], search["initial_delta"])
                res.fail(inst.label, problems)
                res.outputs.append(json.dumps(triples))
                res.add("triangles_found", len(triples))
                res.add("ls2_examined", search["moves_examined"])
                self.final[inst.label] = triples
            except Exception as exc:  # count it and go on with the next instance
                res.fail(inst.label, _escaped(exc))
        return res


WORKLOADS = {w.name: w for w in (CorpusSweep, DenseSolve)}
